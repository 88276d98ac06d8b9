//! Differential tests of the exhaustive block sweep against its scalar
//! oracles, on random netlists: the truth table must equal per-vector
//! `Netlist::eval_bits`, and exhaustive equivalence checking must
//! report the lowest mismatching vector as its witness.

use carma_netlist::equiv::check_equivalence;
use carma_netlist::{BinOp, Equivalence, LaneSim, Netlist, NodeId, UnOp};
use proptest::prelude::*;

/// Deterministic xorshift64* stream for netlist generation.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The input assignment of vector `v`: input `i` is bit `i` of `v`.
fn bits(v: u64, inputs: usize) -> Vec<bool> {
    (0..inputs).map(|i| (v >> i) & 1 == 1).collect()
}

/// A random netlist with every node kind: inputs interleaved with
/// constants and gates (so input ordinals differ from node indices),
/// `Not`/`Buf` and all six binary gates, and outputs that may tap
/// inputs and constants directly. Each vector in `plant` flips output
/// 0 exactly on that input assignment.
fn random_netlist(
    seed: u64,
    inputs: usize,
    outputs: usize,
    gates: usize,
    plant: &[u64],
) -> Netlist {
    let mut s = Stream::new(seed);
    let mut n = Netlist::new(format!("rand{seed}"));
    let mut ins: Vec<NodeId> = vec![n.input("i0")];
    let mut pool: Vec<NodeId> = ins.clone();
    let (mut placed_gates, mut consts) = (0, 0);
    while ins.len() < inputs || placed_gates < gates {
        let roll = s.below(10);
        let id = if ins.len() < inputs && (roll < 2 || placed_gates == gates) {
            let id = n.input(format!("i{}", ins.len()));
            ins.push(id);
            id
        } else if roll == 2 && consts < 2 {
            consts += 1;
            n.constant(s.next() & 1 == 1)
        } else if roll < 5 {
            placed_gates += 1;
            let op = [UnOp::Not, UnOp::Buf][s.below(2)];
            n.unary(op, pool[s.below(pool.len())])
        } else {
            placed_gates += 1;
            let op = BinOp::ALL[s.below(BinOp::ALL.len())];
            let (a, b) = (pool[s.below(pool.len())], pool[s.below(pool.len())]);
            n.binary(op, a, b)
        };
        pool.push(id);
    }
    let mut taps: Vec<NodeId> = (0..outputs).map(|_| pool[s.below(pool.len())]).collect();
    for &v in plant {
        let mut minterm = None;
        for (i, &x) in ins.iter().enumerate() {
            let lit = if (v >> i) & 1 == 1 {
                x
            } else {
                n.unary(UnOp::Not, x)
            };
            minterm = Some(match minterm {
                Some(acc) => n.binary(BinOp::And, acc, lit),
                None => lit,
            });
        }
        taps[0] = n.binary(BinOp::Xor, taps[0], minterm.expect("at least one input"));
    }
    for (o, &t) in taps.iter().enumerate() {
        n.output(format!("o{o}"), t);
    }
    n
}

/// Vectors the truth-table oracle checks: all of them up to 12 inputs,
/// else block and word boundaries plus a seeded sample.
fn checked_vectors(inputs: usize, seed: u64) -> Vec<u64> {
    let total = 1u64 << inputs;
    if inputs <= 12 {
        return (0..total).collect();
    }
    let mut s = Stream::new(seed ^ 0xD1B5_4A32_D192_ED03);
    let edges = [0, 1, 63, 64, 1023, 1024, 1025, total / 2, total - 1];
    edges
        .into_iter()
        .chain((0..1024).map(|_| s.next() % total))
        .collect()
}

fn assert_table_matches_eval_bits(n: &Netlist, seed: u64) {
    let table = LaneSim::new(n).truth_table();
    let inputs = n.input_count();
    assert_eq!(table.len(), 1usize << inputs, "{}", n.name());
    for v in checked_vectors(inputs, seed) {
        let expected = n
            .eval_bits(&bits(v, inputs))
            .iter()
            .enumerate()
            .fold(0u32, |acc, (o, &bit)| acc | u32::from(bit) << o);
        assert_eq!(table[v as usize], expected, "{} vector {v}", n.name());
    }
}

/// The lowest vector on which the two netlists differ, by per-vector
/// scalar evaluation in vector order.
fn scalar_first_mismatch(a: &Netlist, b: &Netlist) -> Option<u64> {
    let inputs = a.input_count();
    (0..1u64 << inputs).find(|&v| a.eval_bits(&bits(v, inputs)) != b.eval_bits(&bits(v, inputs)))
}

fn witness_of(verdict: Equivalence) -> Option<u64> {
    match verdict {
        Equivalence::Equivalent { exhaustive } => {
            assert!(exhaustive, "≤ 20 inputs must be checked exhaustively");
            None
        }
        Equivalence::Mismatch { witness } => Some(
            witness
                .iter()
                .rev()
                .fold(0, |v, &bit| v << 1 | u64::from(bit)),
        ),
    }
}

#[test]
fn truth_table_matches_eval_bits_at_every_input_count() {
    // 1–5 inputs fill part of one word; 6–9 part of one block; 10+
    // whole blocks.
    for inputs in 1..=20 {
        let seed = 0x5EED_0000 + inputs as u64;
        let n = random_netlist(seed, inputs, 1 + inputs % 32, 3 * inputs, &[]);
        assert_table_matches_eval_bits(&n, seed);
    }
}

#[test]
fn truth_table_holds_32_outputs() {
    let n = random_netlist(42, 7, 32, 40, &[]);
    assert_table_matches_eval_bits(&n, 42);
}

#[test]
fn planted_mismatches_on_block_edges_are_found() {
    for (inputs, v) in [
        (1, 1),
        (5, 31),
        (6, 63),
        (10, 1023),
        (11, 1024),
        (16, 65_535),
        (20, (1 << 20) - 1),
    ] {
        let left = random_netlist(9, inputs, 3, 20, &[]);
        let right = random_netlist(9, inputs, 3, 20, &[v]);
        let verdict = check_equivalence(&left, &right).unwrap();
        assert_eq!(witness_of(verdict), Some(v), "{inputs} inputs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sweep's truth table equals per-vector scalar evaluation.
    #[test]
    fn truth_table_equals_eval_bits(
        seed in 0u64..u64::MAX,
        inputs in 1usize..21,
        outputs in 1usize..33,
        gates in 0usize..120,
    ) {
        let n = random_netlist(seed, inputs, outputs, gates, &[]);
        assert_table_matches_eval_bits(&n, seed);
    }

    /// Any slice of the table, aligned to a block or not, fills in as
    /// the same slice of the whole table.
    #[test]
    fn filled_slice_matches_the_table(
        seed in 0u64..u64::MAX,
        inputs in 1usize..15,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let n = random_netlist(seed, inputs, 5, 40, &[]);
        let sim = LaneSim::new(&n);
        let table = sim.truth_table();
        let total = table.len() as u64 + 1;
        let (start, end) = ((a % total).min(b % total), (a % total).max(b % total));
        let mut slice = vec![u32::MAX; (end - start) as usize];
        sim.fill_truth_table(start, &mut slice);
        prop_assert_eq!(&slice[..], &table[start as usize..end as usize]);
    }

    /// A netlist is equivalent to its own rebuild, and a single planted
    /// mismatch is reported as the witness — the lowest mismatching
    /// vector, as a scalar scan in vector order finds it.
    #[test]
    fn planted_mismatch_is_the_witness(
        seed in 0u64..u64::MAX,
        inputs in 1usize..21,
        outputs in 1usize..33,
        gates in 0usize..80,
        planted in 0u64..u64::MAX,
    ) {
        let v = planted % (1u64 << inputs);
        let left = random_netlist(seed, inputs, outputs, gates, &[]);
        let twin = random_netlist(seed, inputs, outputs, gates, &[]);
        prop_assert_eq!(witness_of(check_equivalence(&left, &twin).unwrap()), None);
        let right = random_netlist(seed, inputs, outputs, gates, &[v]);
        let witness = witness_of(check_equivalence(&left, &right).unwrap());
        prop_assert_eq!(witness, Some(v));
        if inputs <= 10 {
            prop_assert_eq!(witness, scalar_first_mismatch(&left, &right));
        }
    }

    /// With two planted mismatches, the lower one is the witness.
    #[test]
    fn lowest_of_two_mismatches_is_the_witness(
        seed in 0u64..u64::MAX,
        inputs in 2usize..21,
        first in 0u64..u64::MAX,
        second in 0u64..u64::MAX,
    ) {
        let total = 1u64 << inputs;
        let (a, b) = (first % total, second % total);
        prop_assume!(a != b);
        let left = random_netlist(seed, inputs, 4, 30, &[]);
        let right = random_netlist(seed, inputs, 4, 30, &[a, b]);
        let witness = witness_of(check_equivalence(&left, &right).unwrap());
        prop_assert_eq!(witness, Some(a.min(b)));
        if inputs <= 10 {
            prop_assert_eq!(witness, scalar_first_mismatch(&left, &right));
        }
    }
}
