//! Error characterization of (approximate) multipliers.
//!
//! [`ErrorProfile`] captures the metrics the approximate-computing
//! literature uses to qualify a unit: error rate, mean error distance
//! (MED), normalized MED, mean relative error distance (MRED),
//! worst-case error (WCE), signed bias and error variance. The DNN
//! accuracy model in `carma-dnn` consumes the bias/variance pair; the
//! NSGA-II library search minimizes (area, MRED).
//!
//! For widths ≤ 10 the characterization is exhaustive: it reads all
//! 2^(2n) products from the circuit's truth table, one chunk's slice
//! at a time ([`LaneSim::fill_truth_table`]; the whole table is what a
//! [`LutMultiplier`](crate::lut::LutMultiplier) serves). Larger widths
//! use deterministic stratified sampling, packing 64 random pairs at a
//! time into the lane simulator.
//!
//! Both accumulate on the `carma-exec` pool: the operand space is cut
//! into fixed-size chunks (fixed regardless of thread count), each
//! chunk accumulates privately in pair order — sampled chunks with an
//! RNG stream derived from `(seed, chunk index)` — and the partial
//! accumulators merge in chunk order. Results are therefore
//! bit-identical at every `CARMA_THREADS` setting.

use carma_netlist::sim::{pack_bit, unpack_lane};
use carma_netlist::LaneSim;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::exact::MultiplierCircuit;

/// Width (bits) up to which characterization is exhaustive.
const EXHAUSTIVE_WIDTH_LIMIT: u32 = 10;
/// Sample count used beyond the exhaustive limit.
const SAMPLE_COUNT: usize = 1 << 18;
/// Seed for sampled characterization (deterministic).
const SAMPLE_SEED: u64 = 0x5EEDE44;
/// Operand pairs per parallel work chunk. Fixed (never derived from
/// the thread count) so the chunk boundaries — and with them the f64
/// accumulation order — are identical at any parallelism.
const CHUNK_PAIRS: u64 = 1 << 12;

/// Statistical error profile of a multiplier against exact
/// multiplication.
///
/// ```
/// use carma_multiplier::exact::{MultiplierCircuit, ReductionKind};
/// use carma_multiplier::approx::ApproxGenome;
/// use carma_multiplier::error::ErrorProfile;
///
/// let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
/// let approx = ApproxGenome::truncation(2, 2).apply(&base);
/// let p = ErrorProfile::exhaustive(&approx);
/// assert!(p.error_rate > 0.0 && p.nmed < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Operand width of the characterized multiplier.
    pub width: u32,
    /// Fraction of operand pairs with a wrong product, in `[0, 1]`.
    pub error_rate: f64,
    /// Mean absolute error distance `E[|approx − exact|]`.
    pub med: f64,
    /// MED normalized by the maximum exact product, in `[0, 1]`.
    pub nmed: f64,
    /// Mean relative error distance `E[|e| / max(1, exact)]`.
    pub mred: f64,
    /// Worst-case absolute error.
    pub wce: u64,
    /// Signed mean error `E[approx − exact]` (negative = underestimates,
    /// the typical signature of truncation).
    pub bias: f64,
    /// Variance of the signed error.
    pub variance: f64,
}

impl ErrorProfile {
    /// A perfect profile (used for exact multipliers and as the unit of
    /// comparisons).
    pub fn zero(width: u32) -> Self {
        ErrorProfile {
            width,
            error_rate: 0.0,
            med: 0.0,
            nmed: 0.0,
            mred: 0.0,
            wce: 0,
            bias: 0.0,
            variance: 0.0,
        }
    }

    /// Characterizes `circuit` exhaustively (width ≤ 10) or by
    /// stratified sampling (wider), automatically.
    pub fn exhaustive(circuit: &MultiplierCircuit) -> Self {
        if circuit.width() <= EXHAUSTIVE_WIDTH_LIMIT {
            Self::characterize_exhaustive(circuit)
        } else {
            Self::characterize_sampled(circuit, SAMPLE_COUNT, SAMPLE_SEED)
        }
    }

    /// Characterizes `circuit` on `samples` uniformly random operand
    /// pairs. The sample stream is fully determined by `seed` (each
    /// 4096-sample chunk draws from an RNG derived from the seed and
    /// the chunk index), independent of thread count.
    pub fn sampled(circuit: &MultiplierCircuit, samples: usize, seed: u64) -> Self {
        Self::characterize_sampled(circuit, samples, seed)
    }

    fn characterize_exhaustive(circuit: &MultiplierCircuit) -> Self {
        let n = circuit.width();
        let total = 1u64 << (2 * n);
        let sim = LaneSim::new(circuit.netlist());
        let chunks = total.div_ceil(CHUNK_PAIRS) as usize;
        let partials = carma_exec::par_gen(chunks, |c| {
            let start = c as u64 * CHUNK_PAIRS;
            let mut products = vec![0; (total - start).min(CHUNK_PAIRS) as usize];
            sim.fill_truth_table(start, &mut products);
            let mut acc = Accumulator::new(n);
            for (pair_idx, &approx) in (start..).zip(&products) {
                acc.record(pair_idx & ((1 << n) - 1), pair_idx >> n, u64::from(approx));
            }
            acc
        });
        Accumulator::merge_in_order(n, partials).finish()
    }

    fn characterize_sampled(circuit: &MultiplierCircuit, samples: usize, seed: u64) -> Self {
        let n = circuit.width();
        let sim = LaneSim::new(circuit.netlist());
        let mask = (1u64 << n) - 1;
        let chunk = CHUNK_PAIRS as usize;
        let chunks = samples.div_ceil(chunk);
        let partials = carma_exec::par_gen(chunks, |c| {
            // Private RNG stream per chunk: the draw sequence depends
            // only on (seed, chunk index), never on scheduling.
            let mut rng = StdRng::seed_from_u64(carma_exec::derive_seed(seed, c as u64));
            let mut acc = Accumulator::new(n);
            let mut scratch = Vec::new();
            let mut remaining = chunk.min(samples - c * chunk);
            while remaining > 0 {
                let batch = remaining.min(64);
                let pairs: Vec<(u64, u64)> = (0..batch)
                    .map(|_| (rng.random::<u64>() & mask, rng.random::<u64>() & mask))
                    .collect();
                eval_lane_batch(&sim, n, &pairs, &mut acc, &mut scratch);
                remaining -= batch;
            }
            acc
        });
        Accumulator::merge_in_order(n, partials).finish()
    }
}

/// Runs one ≤ 64-pair batch through the lane simulator and records the
/// products into `acc`. No-op on an empty batch.
fn eval_lane_batch(
    sim: &LaneSim<'_>,
    n: u32,
    pairs: &[(u64, u64)],
    acc: &mut Accumulator,
    scratch: &mut Vec<u64>,
) {
    if pairs.is_empty() {
        return;
    }
    debug_assert!(pairs.len() <= 64, "lane simulator is 64-wide");
    let a_vals: Vec<u64> = pairs.iter().map(|&(a, _)| a).collect();
    let b_vals: Vec<u64> = pairs.iter().map(|&(_, b)| b).collect();
    let mut words = Vec::with_capacity(2 * n as usize);
    for bit in 0..n {
        words.push(pack_bit(&a_vals, bit));
    }
    for bit in 0..n {
        words.push(pack_bit(&b_vals, bit));
    }
    let out = sim.eval_into(&words, scratch);
    for (lane, &(a, b)) in pairs.iter().enumerate() {
        let approx = unpack_lane(&out, lane);
        acc.record(a, b, approx);
    }
}

/// Streaming accumulator for the error statistics.
struct Accumulator {
    width: u32,
    count: u64,
    errors: u64,
    sum_abs: f64,
    sum_rel: f64,
    sum_signed: f64,
    sum_signed_sq: f64,
    wce: u64,
}

impl Accumulator {
    fn new(width: u32) -> Self {
        Accumulator {
            width,
            count: 0,
            errors: 0,
            sum_abs: 0.0,
            sum_rel: 0.0,
            sum_signed: 0.0,
            sum_signed_sq: 0.0,
            wce: 0,
        }
    }

    /// Folds `other` into `self` (field-wise sums, max of worst
    /// cases).
    fn absorb(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.width, other.width);
        self.count += other.count;
        self.errors += other.errors;
        self.sum_abs += other.sum_abs;
        self.sum_rel += other.sum_rel;
        self.sum_signed += other.sum_signed;
        self.sum_signed_sq += other.sum_signed_sq;
        self.wce = self.wce.max(other.wce);
    }

    /// Merges per-chunk accumulators **in chunk order** — the fixed
    /// fold order that keeps the f64 sums identical at any thread
    /// count.
    fn merge_in_order(width: u32, partials: Vec<Accumulator>) -> Accumulator {
        let mut total = Accumulator::new(width);
        for p in partials {
            total.absorb(&p);
        }
        total
    }

    fn record(&mut self, a: u64, b: u64, approx: u64) {
        let exact = a * b;
        let signed = approx as f64 - exact as f64;
        let abs = signed.abs();
        self.count += 1;
        if approx != exact {
            self.errors += 1;
        }
        self.sum_abs += abs;
        self.sum_rel += abs / (exact.max(1) as f64);
        self.sum_signed += signed;
        self.sum_signed_sq += signed * signed;
        self.wce = self.wce.max(abs as u64);
    }

    fn finish(self) -> ErrorProfile {
        let count = self.count.max(1) as f64;
        let max_val = (1u64 << self.width) - 1;
        let max_product = (max_val * max_val) as f64;
        let bias = self.sum_signed / count;
        ErrorProfile {
            width: self.width,
            error_rate: self.errors as f64 / count,
            med: self.sum_abs / count,
            nmed: self.sum_abs / count / max_product.max(1.0),
            mred: self.sum_rel / count,
            wce: self.wce,
            bias,
            variance: (self.sum_signed_sq / count - bias * bias).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxGenome;
    use crate::exact::ReductionKind;

    fn base8() -> MultiplierCircuit {
        MultiplierCircuit::generate(8, ReductionKind::Dadda)
    }

    #[test]
    fn exact_multiplier_has_zero_profile() {
        let p = ErrorProfile::exhaustive(&base8());
        assert_eq!(p.error_rate, 0.0);
        assert_eq!(p.med, 0.0);
        assert_eq!(p.wce, 0);
        assert_eq!(p.bias, 0.0);
        assert_eq!(p.variance, 0.0);
    }

    #[test]
    fn exact_4bit_all_kinds_zero_profile() {
        for kind in ReductionKind::ALL {
            let m = MultiplierCircuit::generate(4, kind);
            let p = ErrorProfile::exhaustive(&m);
            assert_eq!(p.error_rate, 0.0, "{kind}");
        }
    }

    #[test]
    fn truncation_error_matches_analytic_value_4bit() {
        // Truncating 1 LSB of a: approx = (a & !1) * b, so
        // error = (a & 1) * b. Over all 256 pairs of 4-bit operands:
        // MED = E[(a&1)·b] = 0.5 · 7.5 = 3.75.
        let base = MultiplierCircuit::generate(4, ReductionKind::Array);
        let approx = ApproxGenome::truncation(1, 0).apply(&base);
        let p = ErrorProfile::exhaustive(&approx);
        assert!((p.med - 3.75).abs() < 1e-9, "med = {}", p.med);
        // Bias is negative (truncation underestimates) with |bias| = MED.
        assert!((p.bias + 3.75).abs() < 1e-9, "bias = {}", p.bias);
        // Error occurs iff (a odd) and (b != 0): 8/16 · 15/16 = 0.46875.
        assert!((p.error_rate - 0.468_75).abs() < 1e-9);
        // WCE = 1 × 15 = 15.
        assert_eq!(p.wce, 15);
    }

    #[test]
    fn deeper_truncation_has_larger_error() {
        let base = base8();
        let mut last_mred = 0.0;
        for t in 1..=4u8 {
            let p = ErrorProfile::exhaustive(&ApproxGenome::truncation(t, t).apply(&base));
            assert!(p.mred > last_mred, "t={t}: {} !> {last_mred}", p.mred);
            last_mred = p.mred;
        }
    }

    #[test]
    fn nmed_is_normalized() {
        let base = base8();
        let p = ErrorProfile::exhaustive(&ApproxGenome::truncation(4, 4).apply(&base));
        assert!(p.nmed > 0.0 && p.nmed < 1.0);
        assert!((p.nmed - p.med / (255.0 * 255.0)).abs() < 1e-12);
    }

    #[test]
    fn sampled_profile_close_to_exhaustive() {
        let base = base8();
        let approx = ApproxGenome::truncation(2, 2).apply(&base);
        let full = ErrorProfile::exhaustive(&approx);
        let sampled = ErrorProfile::sampled(&approx, 1 << 14, 99);
        assert!(
            (full.mred - sampled.mred).abs() / full.mred < 0.1,
            "exhaustive {} vs sampled {}",
            full.mred,
            sampled.mred
        );
        assert!((full.error_rate - sampled.error_rate).abs() < 0.02);
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let base = base8();
        let approx = ApproxGenome::truncation(1, 1).apply(&base);
        let a = ErrorProfile::sampled(&approx, 4096, 7);
        let b = ErrorProfile::sampled(&approx, 4096, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn characterization_is_thread_count_invariant() {
        let base = base8();
        let approx = ApproxGenome::truncation(2, 1).apply(&base);
        let exhaustive_1 = carma_exec::with_threads(1, || ErrorProfile::exhaustive(&approx));
        let exhaustive_8 = carma_exec::with_threads(8, || ErrorProfile::exhaustive(&approx));
        assert_eq!(exhaustive_1, exhaustive_8);
        let sampled_1 = carma_exec::with_threads(1, || ErrorProfile::sampled(&approx, 9999, 5));
        let sampled_8 = carma_exec::with_threads(8, || ErrorProfile::sampled(&approx, 9999, 5));
        assert_eq!(sampled_1, sampled_8);
    }

    /// Per-pair scalar reference of the exhaustive profile: every
    /// product from [`MultiplierCircuit::multiply_via_netlist`], folded
    /// in the same `CHUNK_PAIRS` chunks, pair order and merge order.
    fn scalar_reference(circuit: &MultiplierCircuit) -> ErrorProfile {
        let n = circuit.width();
        let total = 1u64 << (2 * n);
        let partials = (0..total)
            .step_by(CHUNK_PAIRS as usize)
            .map(|start| {
                let mut acc = Accumulator::new(n);
                for pair_idx in start..(start + CHUNK_PAIRS).min(total) {
                    let (a, b) = (pair_idx & ((1 << n) - 1), pair_idx >> n);
                    acc.record(a, b, circuit.multiply_via_netlist(a as u32, b as u32));
                }
                acc
            })
            .collect();
        Accumulator::merge_in_order(n, partials).finish()
    }

    #[test]
    fn exhaustive_matches_scalar_reference_bit_for_bit() {
        use crate::approx::{Prune, PruneAction};
        use crate::families::{broken_array, truncated_with_correction};

        let base = base8();
        let pruned = ApproxGenome {
            truncate_a: 1,
            truncate_b: 0,
            prunes: [
                (7, PruneAction::Const0),
                (91, PruneAction::FeedA),
                (180, PruneAction::Const1),
                (260, PruneAction::FeedB),
            ]
            .into_iter()
            .map(|(gate, action)| Prune { gate, action })
            .collect(),
        };
        let mut circuits = vec![
            // Ladder rungs, including widths whose table is a partial
            // block (4-bit) or a partial word (2-bit).
            ApproxGenome::truncation(1, 2).apply(&base),
            ApproxGenome::truncation(3, 3).apply(&base),
            ApproxGenome::truncation(1, 1)
                .apply(&MultiplierCircuit::generate(4, ReductionKind::Array)),
            ApproxGenome::truncation(0, 1)
                .apply(&MultiplierCircuit::generate(2, ReductionKind::Wallace)),
            // Classic candidates.
            broken_array(8, 5, ReductionKind::Dadda),
            truncated_with_correction(8, 6, ReductionKind::Dadda),
            // An NSGA-II-style genome with gate prunes.
            pruned.apply(&base),
        ];
        // The imported example library.
        let modules = carma_netlist::parse_netlists(
            include_str!("../../../examples/libraries/approx8.v"),
            carma_netlist::ImportFormat::Verilog,
        )
        .unwrap();
        circuits.extend(
            modules
                .into_iter()
                .map(|nl| MultiplierCircuit::from_netlist(nl, 8)),
        );
        for circuit in &circuits {
            let swept = ErrorProfile::exhaustive(circuit);
            let reference = scalar_reference(circuit);
            let name = circuit.netlist().name();
            assert!(swept.error_rate > 0.0, "{name} should be approximate");
            assert_eq!(swept, reference, "{name}");
            assert_eq!(swept.mred.to_bits(), reference.mred.to_bits(), "{name}");
            assert_eq!(
                swept.variance.to_bits(),
                reference.variance.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn zero_profile_constructor() {
        let p = ErrorProfile::zero(8);
        assert_eq!(p.width, 8);
        assert_eq!(p.mred, 0.0);
    }
}
