//! Lookup-table compilation of multiplier netlists.
//!
//! Behavioural DNN inference (the ApproxTrain substitute in
//! `carma-dnn`) performs billions of products; simulating the netlist
//! for each one would be hopeless. [`LutMultiplier`] evaluates the
//! netlist once for every operand pair and serves products from a flat
//! table — exactly the trick ApproxTrain uses on GPUs.

use std::fmt;
use std::sync::Arc;

use carma_netlist::LaneSim;

use crate::exact::MultiplierCircuit;

/// An unsigned integer multiplier of a fixed operand width.
///
/// The trait is object-safe so inference engines can hold
/// `Arc<dyn Multiplier>` and switch between exact and approximate
/// units at runtime (the paper's accuracy-evaluation loop).
pub trait Multiplier: fmt::Debug + Send + Sync {
    /// Operand width in bits.
    fn width(&self) -> u32;

    /// Multiplies two operands (each must fit in [`width`](Self::width)
    /// bits). Implementations may return an approximate product.
    fn multiply(&self, a: u32, b: u32) -> u64;

    /// A short human-readable identifier for reports.
    fn name(&self) -> &str;
}

/// The exact reference multiplier (plain integer multiplication).
#[derive(Debug, Clone)]
pub struct ExactMultiplier {
    width: u32,
}

impl ExactMultiplier {
    /// Creates an exact multiplier of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 16.
    pub fn new(width: u32) -> Self {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        ExactMultiplier { width }
    }
}

impl Multiplier for ExactMultiplier {
    fn width(&self) -> u32 {
        self.width
    }

    fn multiply(&self, a: u32, b: u32) -> u64 {
        debug_assert!(a < (1 << self.width) && b < (1 << self.width));
        u64::from(a) * u64::from(b)
    }

    fn name(&self) -> &str {
        "exact"
    }
}

/// A multiplier backed by a fully materialized lookup table.
///
/// The table is the circuit's exhaustive truth table
/// ([`LaneSim::truth_table`]): all `2^(2n)` operand pairs swept in
/// blocks of 1 024 vectors (for 8-bit units: 65 536 entries, 1 024
/// 64-lane words in 64 blocks). Entry `(b << n) | a` holds `a × b`. The
/// table is shared via [`Arc`] so cloning is cheap.
///
/// ```
/// use carma_multiplier::exact::{MultiplierCircuit, ReductionKind};
/// use carma_multiplier::lut::{LutMultiplier, Multiplier};
///
/// let circuit = MultiplierCircuit::generate(8, ReductionKind::Wallace);
/// let lut = LutMultiplier::compile(&circuit);
/// assert_eq!(lut.multiply(250, 250), 62_500);
/// ```
#[derive(Clone)]
pub struct LutMultiplier {
    width: u32,
    name: String,
    table: Arc<[u32]>,
}

impl LutMultiplier {
    /// Width (bits) up to which a full table is feasible (2^(2·12)
    /// entries = 64 Mi entries; beyond that, compile-time and memory
    /// explode).
    pub const MAX_WIDTH: u32 = 12;

    /// Compiles `circuit` into a lookup table.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than [`Self::MAX_WIDTH`].
    pub fn compile(circuit: &MultiplierCircuit) -> Self {
        let n = circuit.width();
        assert!(
            n <= Self::MAX_WIDTH,
            "LUT compilation supports width ≤ {}, got {n}",
            Self::MAX_WIDTH
        );
        LutMultiplier {
            width: n,
            name: circuit.netlist().name().to_string(),
            table: LaneSim::new(circuit.netlist()).truth_table().into(),
        }
    }

    /// Number of entries in the table.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }
}

impl fmt::Debug for LutMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LutMultiplier")
            .field("width", &self.width)
            .field("name", &self.name)
            .field("entries", &self.table.len())
            .finish()
    }
}

impl Multiplier for LutMultiplier {
    fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    fn multiply(&self, a: u32, b: u32) -> u64 {
        debug_assert!(a < (1 << self.width) && b < (1 << self.width));
        u64::from(self.table[((b as usize) << self.width) | a as usize])
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxGenome;
    use crate::exact::ReductionKind;

    #[test]
    fn lut_matches_netlist_for_exact_circuit() {
        let c = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let lut = LutMultiplier::compile(&c);
        for a in (0u32..256).step_by(7) {
            for b in (0u32..256).step_by(11) {
                assert_eq!(lut.multiply(a, b), u64::from(a * b), "{a}×{b}");
            }
        }
        assert_eq!(lut.table_len(), 65_536);
    }

    #[test]
    fn lut_matches_netlist_for_approximate_circuit() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let approx = ApproxGenome::truncation(2, 1).apply(&base);
        let lut = LutMultiplier::compile(&approx);
        for a in (0u32..256).step_by(13) {
            for b in (0u32..256).step_by(17) {
                assert_eq!(
                    lut.multiply(a, b),
                    approx.multiply_via_netlist(a, b),
                    "{a}×{b}"
                );
            }
        }
    }

    #[test]
    fn exact_multiplier_trait_object() {
        let m: Box<dyn Multiplier> = Box::new(ExactMultiplier::new(8));
        assert_eq!(m.multiply(255, 255), 65_025);
        assert_eq!(m.width(), 8);
        assert_eq!(m.name(), "exact");
    }

    #[test]
    fn lut_clone_shares_table() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Array);
        let lut = LutMultiplier::compile(&c);
        let clone = lut.clone();
        assert_eq!(Arc::as_ptr(&lut.table), Arc::as_ptr(&clone.table));
    }

    #[test]
    fn lut_name_comes_from_circuit() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Wallace);
        let lut = LutMultiplier::compile(&c);
        assert!(lut.name().contains("wallace"));
    }

    #[test]
    #[should_panic(expected = "LUT compilation supports width")]
    fn oversized_lut_rejected() {
        let c = MultiplierCircuit::generate(16, ReductionKind::Dadda);
        let _ = LutMultiplier::compile(&c);
    }

    #[test]
    fn debug_is_nonempty() {
        let c = MultiplierCircuit::generate(4, ReductionKind::Array);
        let lut = LutMultiplier::compile(&c);
        assert!(format!("{lut:?}").contains("LutMultiplier"));
    }
}
