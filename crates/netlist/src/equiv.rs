//! Combinational equivalence checking.
//!
//! After an approximation transform (and especially after [`sweep`]),
//! one wants proof that a rewrite preserved — or a measure of how it
//! changed — the function. [`check_equivalence`] compares two netlists
//! with identical port interfaces: exhaustively for ≤ 20 inputs (both
//! netlists swept block by block in vector order, stopping at the
//! first block that differs), by seeded random sampling beyond that.
//!
//! [`sweep`]: crate::Netlist::sweep

use crate::netlist::Netlist;
use crate::sim::{pack_bit, LaneSim, BLOCK_WORDS, WORD_LANES};

/// Input-count limit for exhaustive checking (2^20 ≈ 1M vectors).
const EXHAUSTIVE_INPUT_LIMIT: usize = 20;
/// Vector count for sampled checking.
const SAMPLE_VECTORS: usize = 1 << 16;

/// The verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// All checked vectors agree; exhaustive checks are proofs,
    /// sampled ones are evidence (`exhaustive` tells which).
    Equivalent {
        /// Whether every input vector was checked.
        exhaustive: bool,
    },
    /// A disagreement was found; the witness is the offending input
    /// assignment (LSB-first, one bool per primary input).
    Mismatch {
        /// Counterexample input assignment.
        witness: Vec<bool>,
    },
}

impl Equivalence {
    /// Whether the verdict is "equivalent".
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent { .. })
    }
}

/// Errors of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivError {
    /// The two netlists have different input counts.
    InputMismatch {
        /// Inputs of the first netlist.
        left: usize,
        /// Inputs of the second netlist.
        right: usize,
    },
    /// The two netlists have different output counts.
    OutputMismatch {
        /// Outputs of the first netlist.
        left: usize,
        /// Outputs of the second netlist.
        right: usize,
    },
}

impl std::fmt::Display for EquivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivError::InputMismatch { left, right } => {
                write!(f, "input count mismatch: {left} vs {right}")
            }
            EquivError::OutputMismatch { left, right } => {
                write!(f, "output count mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for EquivError {}

/// Checks functional equivalence of two netlists with matching port
/// interfaces (same input and output counts, positional matching).
///
/// # Errors
///
/// Returns [`EquivError`] if the port interfaces differ.
///
/// # Example
///
/// ```
/// use carma_netlist::{Netlist, BinOp};
/// use carma_netlist::equiv::check_equivalence;
///
/// # fn main() -> Result<(), carma_netlist::equiv::EquivError> {
/// // a AND b  vs  NOT(NOT a OR NOT b): De Morgan equivalent.
/// let mut x = Netlist::new("and");
/// let a = x.input("a");
/// let b = x.input("b");
/// let g = x.binary(BinOp::And, a, b);
/// x.output("y", g);
///
/// let mut y = Netlist::new("demorgan");
/// let a = y.input("a");
/// let b = y.input("b");
/// let na = y.unary(carma_netlist::UnOp::Not, a);
/// let nb = y.unary(carma_netlist::UnOp::Not, b);
/// let o = y.binary(BinOp::Or, na, nb);
/// let g = y.unary(carma_netlist::UnOp::Not, o);
/// y.output("y", g);
///
/// assert!(check_equivalence(&x, &y)?.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(left: &Netlist, right: &Netlist) -> Result<Equivalence, EquivError> {
    if left.input_count() != right.input_count() {
        return Err(EquivError::InputMismatch {
            left: left.input_count(),
            right: right.input_count(),
        });
    }
    if left.output_count() != right.output_count() {
        return Err(EquivError::OutputMismatch {
            left: left.output_count(),
            right: right.output_count(),
        });
    }
    let n_inputs = left.input_count();
    if n_inputs <= EXHAUSTIVE_INPUT_LIMIT {
        Ok(check_exhaustive(left, right))
    } else {
        Ok(check_sampled(left, right))
    }
}

/// Sweeps both netlists over every input vector, block by block, and
/// returns the lowest mismatching vector as the witness.
fn check_exhaustive(left: &Netlist, right: &Netlist) -> Equivalence {
    let lsim = LaneSim::new(left);
    let rsim = LaneSim::new(right);
    let (mut lscratch, mut rscratch) = (Vec::new(), Vec::new());
    let (mut lout, mut rout) = (Vec::new(), Vec::new());
    for block in 0..lsim.block_count() {
        lsim.eval_block(block, &mut lscratch, &mut lout);
        rsim.eval_block(block, &mut rscratch, &mut rout);
        for w in 0..BLOCK_WORDS {
            let diff = lout
                .iter()
                .zip(&rout)
                .fold(0u64, |acc, (l, r)| acc | (l[w] ^ r[w]));
            if diff == 0 {
                continue;
            }
            // Lanes and words past the sweep repeat earlier vectors, so
            // the lowest set lane of the first nonzero word is the
            // lowest mismatching vector.
            let word = (block * BLOCK_WORDS + w) as u64;
            let vector = word * WORD_LANES as u64 + u64::from(diff.trailing_zeros());
            debug_assert!(vector < lsim.vector_count());
            let witness = (0..left.input_count())
                .map(|i| (vector >> i) & 1 == 1)
                .collect();
            return Equivalence::Mismatch { witness };
        }
    }
    Equivalence::Equivalent { exhaustive: true }
}

/// Compares both netlists on [`SAMPLE_VECTORS`] seeded random vectors.
fn check_sampled(left: &Netlist, right: &Netlist) -> Equivalence {
    let n_inputs = left.input_count();
    let vectors = SampledVectors::new(n_inputs, SAMPLE_VECTORS);
    let lsim = LaneSim::new(left);
    let rsim = LaneSim::new(right);
    let mut lscratch = Vec::new();
    let mut rscratch = Vec::new();

    let mut batch: Vec<Vec<u64>> = Vec::with_capacity(64);
    let mut flush = |batch: &mut Vec<Vec<u64>>| -> Option<Vec<bool>> {
        if batch.is_empty() {
            return None;
        }
        // Pack per-input words across the batch lanes.
        let words: Vec<u64> = (0..n_inputs)
            .map(|i| {
                let bits: Vec<u64> = batch.iter().map(|v| v[i]).collect();
                pack_bit(&bits, 0)
            })
            .collect();
        let lo = lsim.eval_into(&words, &mut lscratch);
        let ro = rsim.eval_into(&words, &mut rscratch);
        for (lane, vector) in batch.iter().enumerate() {
            for (lw, rw) in lo.iter().zip(&ro) {
                if (lw >> lane) & 1 != (rw >> lane) & 1 {
                    let witness = vector.iter().map(|&b| b == 1).collect();
                    batch.clear();
                    return Some(witness);
                }
            }
        }
        batch.clear();
        None
    };

    for v in vectors {
        batch.push(v);
        if batch.len() == 64 {
            if let Some(witness) = flush(&mut batch) {
                return Equivalence::Mismatch { witness };
            }
        }
    }
    if let Some(witness) = flush(&mut batch) {
        return Equivalence::Mismatch { witness };
    }
    Equivalence::Equivalent { exhaustive: false }
}

/// Seeded pseudo-random assignments (xorshift; no external RNG needed
/// at this layer).
struct SampledVectors {
    n: usize,
    state: u64,
    remaining: usize,
}

impl SampledVectors {
    fn new(n: usize, count: usize) -> Self {
        SampledVectors {
            n,
            state: 0x9E37_79B9_7F4A_7C15,
            remaining: count,
        }
    }

    fn next_word(&mut self) -> u64 {
        // xorshift64*.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Iterator for SampledVectors {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut v = Vec::with_capacity(self.n);
        let mut word = self.next_word();
        let mut bits_left = 64;
        for _ in 0..self.n {
            if bits_left == 0 {
                word = self.next_word();
                bits_left = 64;
            }
            v.push(word & 1);
            word >>= 1;
            bits_left -= 1;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{BinOp, UnOp};

    fn and2() -> Netlist {
        let mut n = Netlist::new("and2");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.binary(BinOp::And, a, b);
        n.output("y", g);
        n
    }

    fn nand_not() -> Netlist {
        let mut n = Netlist::new("nandnot");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.binary(BinOp::Nand, a, b);
        let y = n.unary(UnOp::Not, g);
        n.output("y", y);
        n
    }

    #[test]
    fn equivalent_implementations_pass() {
        let v = check_equivalence(&and2(), &nand_not()).unwrap();
        assert_eq!(v, Equivalence::Equivalent { exhaustive: true });
    }

    #[test]
    fn sweep_preserves_equivalence() {
        let mut n = and2();
        let one = n.constant(true);
        let a = n.input_ids()[0];
        let g = n.binary(BinOp::And, a, one);
        n.output("z", g);
        let swept = n.sweep();
        assert!(check_equivalence(&n, &swept).unwrap().is_equivalent());
    }

    #[test]
    fn mismatch_produces_valid_witness() {
        let mut or2 = Netlist::new("or2");
        let a = or2.input("a");
        let b = or2.input("b");
        let g = or2.binary(BinOp::Or, a, b);
        or2.output("y", g);
        let v = check_equivalence(&and2(), &or2).unwrap();
        match v {
            Equivalence::Mismatch { witness } => {
                assert_eq!(witness.len(), 2);
                // The witness must actually distinguish them.
                let l = and2().eval_bits(&witness);
                let r = or2.eval_bits(&witness);
                assert_ne!(l, r);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatches_are_errors() {
        let mut one_in = Netlist::new("buf");
        let a = one_in.input("a");
        one_in.output("y", a);
        assert!(matches!(
            check_equivalence(&and2(), &one_in),
            Err(EquivError::InputMismatch { .. })
        ));

        let mut two_out = and2();
        let a = two_out.input_ids()[0];
        two_out.output("y2", a);
        assert!(matches!(
            check_equivalence(&and2(), &two_out),
            Err(EquivError::OutputMismatch { .. })
        ));
    }

    #[test]
    fn wide_netlists_use_sampling() {
        // 24 inputs: a parity chain, equivalent to itself.
        let build = || {
            let mut n = Netlist::new("parity24");
            let inputs: Vec<_> = (0..24).map(|i| n.input(format!("i{i}"))).collect();
            let mut acc = inputs[0];
            for &x in &inputs[1..] {
                acc = n.binary(BinOp::Xor, acc, x);
            }
            n.output("p", acc);
            n
        };
        let v = check_equivalence(&build(), &build()).unwrap();
        assert_eq!(v, Equivalence::Equivalent { exhaustive: false });
    }

    #[test]
    fn sampling_finds_gross_differences() {
        let mut left = Netlist::new("wide_and");
        let inputs: Vec<_> = (0..24).map(|i| left.input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = left.binary(BinOp::And, acc, x);
        }
        left.output("y", acc);

        let mut right = Netlist::new("wide_const");
        for i in 0..24 {
            right.input(format!("i{i}"));
        }
        let one = right.constant(true);
        right.output("y", one);

        let v = check_equivalence(&left, &right).unwrap();
        assert!(matches!(v, Equivalence::Mismatch { .. }));
    }
}
