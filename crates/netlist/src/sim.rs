//! Bit-parallel netlist simulation.
//!
//! [`LaneSim`] evaluates a combinational netlist on 64 independent
//! input vectors at once by packing one vector per bit lane of a `u64`.
//! [`LaneSim::eval`] / [`LaneSim::eval_into`] take caller-packed input
//! words, one netlist pass per 64 vectors.
//!
//! Exhaustive consumers (LUT compilation, exhaustive error profiles,
//! equivalence checking) instead sweep all `2^n` input vectors in
//! order, block by block. A block is [`BLOCK_WORDS`] words (1 024
//! vectors), evaluated node-major: one dispatch per node, then a tight
//! loop over the block's words. Vector `v` sets input `i` to bit `i`
//! of `v`, so input words need no packing: inputs 0–5 are six fixed
//! lane patterns, and every higher input is an all-ones or all-zero
//! word taken from the word index. [`LaneSim::truth_table`] turns a
//! block's output words back into per-vector values with a 64×64 bit
//! transpose; an 8×8 multiplier's 65 536-entry table is 64 blocks.

use crate::gate::{BinOp, Node, UnOp};
use crate::netlist::Netlist;

/// Number of input vectors evaluated per [`LaneSim::eval`] call.
pub const WORD_LANES: usize = 64;

/// Words per block of an exhaustive sweep (1 024 vectors).
pub(crate) const BLOCK_WORDS: usize = 16;

/// One node's (or output's) values across a block's words.
pub(crate) type Block = [u64; BLOCK_WORDS];

/// Lane patterns of inputs 0–5: lane `l` of `LANE_PATTERNS[i]` is bit
/// `i` of `l`.
const LANE_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A reusable lane simulator bound to one netlist.
///
/// The simulator borrows the netlist and allocates its scratch buffer
/// once, so repeated evaluation (exhaustive sweeps, Monte-Carlo error
/// sampling) does not allocate.
///
/// # Example
///
/// ```
/// use carma_netlist::{Netlist, BinOp, LaneSim};
///
/// let mut n = Netlist::new("and2");
/// let a = n.input("a");
/// let b = n.input("b");
/// let g = n.binary(BinOp::And, a, b);
/// n.output("o", g);
///
/// let sim = LaneSim::new(&n);
/// // Lane k of each word is an independent evaluation.
/// let out = sim.eval(&[0b1100, 0b1010]);
/// assert_eq!(out[0] & 0xF, 0b1000);
/// ```
#[derive(Debug)]
pub struct LaneSim<'a> {
    netlist: &'a Netlist,
}

impl<'a> LaneSim<'a> {
    /// Creates a simulator for `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        LaneSim { netlist }
    }

    /// The netlist this simulator evaluates.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Evaluates 64 input vectors at once.
    ///
    /// `inputs[i]` carries the value of primary input `i` across all 64
    /// lanes. Returns one word per primary output, in output
    /// declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        let mut scratch = vec![0u64; self.netlist.nodes().len()];
        self.eval_into(inputs, &mut scratch)
    }

    /// Like [`eval`](Self::eval) but reuses a caller-provided scratch
    /// buffer (resized as needed) to avoid per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn eval_into(&self, inputs: &[u64], scratch: &mut Vec<u64>) -> Vec<u64> {
        let n = self.netlist;
        assert_eq!(
            inputs.len(),
            n.input_count(),
            "expected {} input words, got {}",
            n.input_count(),
            inputs.len()
        );
        scratch.clear();
        scratch.resize(n.nodes().len(), 0);
        let mut next_input = 0usize;
        for (idx, node) in n.nodes().iter().enumerate() {
            scratch[idx] = match node {
                Node::Input { .. } => {
                    let w = inputs[next_input];
                    next_input += 1;
                    w
                }
                Node::Const { value } => {
                    if *value {
                        u64::MAX
                    } else {
                        0
                    }
                }
                Node::Unary { op, a } => op.apply(scratch[a.index()]),
                Node::Binary { op, a, b } => op.apply(scratch[a.index()], scratch[b.index()]),
            };
        }
        n.output_ports()
            .iter()
            .map(|(_, id)| scratch[id.index()])
            .collect()
    }

    /// Number of vectors in an exhaustive sweep: `2^inputs`.
    pub(crate) fn vector_count(&self) -> u64 {
        1u64 << self.netlist.input_count()
    }

    /// Number of blocks in an exhaustive sweep (the last one partial
    /// below 10 inputs).
    pub(crate) fn block_count(&self) -> usize {
        let words = self.vector_count().div_ceil(WORD_LANES as u64) as usize;
        words.div_ceil(BLOCK_WORDS)
    }

    /// Entries of the truth table, `2^inputs`, once the netlist's shape
    /// fits one.
    fn table_len(&self) -> u64 {
        let (ins, outs) = (self.netlist.input_count(), self.netlist.output_count());
        assert!(
            ins <= 32 && outs <= 32,
            "truth tables cover at most 32 inputs and 32 outputs, got {ins} and {outs}"
        );
        self.vector_count()
    }

    /// Evaluates block `block` of the exhaustive sweep: word `w` of the
    /// block holds vectors `64·(block·BLOCK_WORDS + w) + lane`. On
    /// return `outputs[o]` holds output `o` across the block's words.
    /// Words and lanes past vector `2^inputs` repeat earlier vectors.
    pub(crate) fn eval_block(
        &self,
        block: usize,
        scratch: &mut Vec<Block>,
        outputs: &mut Vec<Block>,
    ) {
        let n = self.netlist;
        let first_word = (block * BLOCK_WORDS) as u64;
        scratch.clear();
        scratch.reserve(n.nodes().len());
        let mut next_input = 0usize;
        for node in n.nodes() {
            let value = match node {
                Node::Input { .. } => {
                    let i = next_input;
                    next_input += 1;
                    match LANE_PATTERNS.get(i) {
                        Some(&pattern) => [pattern; BLOCK_WORDS],
                        None => std::array::from_fn(|w| {
                            let word = first_word + w as u64;
                            0u64.wrapping_sub((word >> (i - LANE_PATTERNS.len())) & 1)
                        }),
                    }
                }
                Node::Const { value } => [if *value { u64::MAX } else { 0 }; BLOCK_WORDS],
                Node::Unary { op, a } => {
                    let a = &scratch[a.index()];
                    match op {
                        UnOp::Not => a.map(|x| !x),
                        UnOp::Buf => *a,
                    }
                }
                Node::Binary { op, a, b } => {
                    let (a, b) = (&scratch[a.index()], &scratch[b.index()]);
                    match op {
                        BinOp::And => zip(a, b, |x, y| x & y),
                        BinOp::Or => zip(a, b, |x, y| x | y),
                        BinOp::Xor => zip(a, b, |x, y| x ^ y),
                        BinOp::Nand => zip(a, b, |x, y| !(x & y)),
                        BinOp::Nor => zip(a, b, |x, y| !(x | y)),
                        BinOp::Xnor => zip(a, b, |x, y| !(x ^ y)),
                    }
                }
            };
            scratch.push(value);
        }
        outputs.clear();
        outputs.extend(n.output_ports().iter().map(|(_, id)| scratch[id.index()]));
    }

    /// The netlist's exhaustive truth table: entry `v` holds the outputs
    /// for the input vector whose input `i` is bit `i` of `v`, with
    /// output `o` (declaration order) in bit `o`.
    ///
    /// Allocates the `2^inputs`-entry table plus one block of scratch
    /// per node ([`fill_truth_table`](Self::fill_truth_table) writes a
    /// slice of it into a caller's buffer).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 32 inputs or outputs.
    ///
    /// # Example
    ///
    /// ```
    /// use carma_netlist::{Netlist, BinOp, LaneSim};
    ///
    /// let mut n = Netlist::new("half_adder");
    /// let a = n.input("a");
    /// let b = n.input("b");
    /// let sum = n.binary(BinOp::Xor, a, b);
    /// let carry = n.binary(BinOp::And, a, b);
    /// n.output("sum", sum);
    /// n.output("carry", carry);
    ///
    /// // Vectors (b, a) = 00, 01, 10, 11 → (carry, sum).
    /// assert_eq!(LaneSim::new(&n).truth_table(), vec![0b00, 0b01, 0b01, 0b10]);
    /// ```
    pub fn truth_table(&self) -> Vec<u32> {
        let mut table = vec![0; self.table_len() as usize];
        self.fill_truth_table(0, &mut table);
        table
    }

    /// Writes entries `first..first + table.len()` of the
    /// [`truth_table`](Self::truth_table) into `table`, sweeping only
    /// the blocks they fall in.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 32 inputs or outputs, or
    /// the entries run past `2^inputs`.
    pub fn fill_truth_table(&self, first: u64, table: &mut [u32]) {
        let lanes = WORD_LANES as u64;
        let end = first + table.len() as u64;
        let total = self.table_len();
        assert!(
            end <= total,
            "entries {first}..{end} run past {total} vectors"
        );
        let (first_word, end_word) = (first / lanes, end.div_ceil(lanes));
        let (mut scratch, mut outputs) = (Vec::new(), Vec::new());
        let mut slots = table.iter_mut();
        let blocks = first_word as usize / BLOCK_WORDS..(end_word as usize).div_ceil(BLOCK_WORDS);
        for block in blocks {
            self.eval_block(block, &mut scratch, &mut outputs);
            for w in 0..BLOCK_WORDS {
                let word = (block * BLOCK_WORDS + w) as u64;
                if word < first_word || word >= end_word {
                    continue;
                }
                let mut rows = [0u64; 64];
                for (row, out) in rows.iter_mut().zip(&outputs) {
                    *row = out[w];
                }
                transpose64(&mut rows);
                let lo = first.saturating_sub(word * lanes) as usize;
                let hi = (end - word * lanes).min(lanes) as usize;
                for (&row, slot) in rows[lo..hi].iter().zip(&mut slots) {
                    *slot = row as u32;
                }
            }
        }
    }
}

/// Applies `f` word by word across two blocks.
#[inline(always)]
fn zip(a: &Block, b: &Block, f: impl Fn(u64, u64) -> u64) -> Block {
    std::array::from_fn(|w| f(a[w], b[w]))
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `c` of
/// `m[r]` is what bit `r` of `m[c]` was. Six rounds of block swaps
/// (Hacker's Delight §7-3).
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        for base in (0..64).step_by(2 * j) {
            for k in base..base + j {
                let t = ((m[k] >> j) ^ m[k + j]) & mask;
                m[k] ^= t << j;
                m[k + j] ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Packs `values[k]`'s bit `bit` into lane `k` of a word, for feeding
/// integer operands into a lane simulation.
///
/// # Example
///
/// ```
/// // Lane 0 gets value 3 (bit 0 = 1), lane 1 gets value 2 (bit 0 = 0).
/// let w = carma_netlist::sim::pack_bit(&[3, 2], 0);
/// assert_eq!(w & 0b11, 0b01);
/// ```
pub fn pack_bit(values: &[u64], bit: u32) -> u64 {
    debug_assert!(values.len() <= WORD_LANES);
    let mut w = 0u64;
    for (lane, &v) in values.iter().enumerate() {
        w |= ((v >> bit) & 1) << lane;
    }
    w
}

/// Extracts lane `lane` of each output word and reassembles them into
/// an integer, treating `words[i]` as bit `i`.
///
/// # Example
///
/// ```
/// // Output bits 0b10 in lane 3.
/// let words = [0b0000_0000, 0b0000_1000];
/// assert_eq!(carma_netlist::sim::unpack_lane(&words, 3), 2);
/// ```
pub fn unpack_lane(words: &[u64], lane: usize) -> u64 {
    debug_assert!(lane < WORD_LANES);
    let mut v = 0u64;
    for (bit, &w) in words.iter().enumerate() {
        v |= ((w >> lane) & 1) << bit;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(depth: usize) -> Netlist {
        let mut n = Netlist::new("xorchain");
        let a = n.input("a");
        let b = n.input("b");
        let mut cur = n.binary(BinOp::Xor, a, b);
        for _ in 1..depth {
            cur = n.binary(BinOp::Xor, cur, b);
        }
        n.output("o", cur);
        n
    }

    #[test]
    fn lanes_are_independent() {
        let n = xor_chain(1);
        let sim = LaneSim::new(&n);
        // 64 random-ish lanes.
        let a = 0xDEAD_BEEF_CAFE_F00Du64;
        let b = 0x0123_4567_89AB_CDEFu64;
        let out = sim.eval(&[a, b]);
        assert_eq!(out[0], a ^ b);
    }

    #[test]
    fn const_nodes_broadcast() {
        let mut n = Netlist::new("c");
        let a = n.input("a");
        let one = n.constant(true);
        let g = n.binary(BinOp::And, a, one);
        n.output("o", g);
        let sim = LaneSim::new(&n);
        let out = sim.eval(&[0xFF00]);
        assert_eq!(out[0], 0xFF00);
    }

    #[test]
    fn eval_into_reuses_scratch() {
        let n = xor_chain(4);
        let sim = LaneSim::new(&n);
        let mut scratch = Vec::new();
        let o1 = sim.eval_into(&[1, 1], &mut scratch);
        let o2 = sim.eval_into(&[1, 0], &mut scratch);
        // depth 4: a ^ b ^ b ^ b ^ b = a.
        assert_eq!(o1[0] & 1, 1);
        assert_eq!(o2[0] & 1, 1);
    }

    #[test]
    #[should_panic(expected = "expected 2 input words")]
    fn wrong_input_count_panics() {
        let n = xor_chain(1);
        LaneSim::new(&n).eval(&[0]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let values: Vec<u64> = (0..WORD_LANES as u64).map(|i| i * 37 % 256).collect();
        let words: Vec<u64> = (0..8).map(|bit| pack_bit(&values, bit)).collect();
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(unpack_lane(&words, lane), v & 0xFF);
        }
    }

    #[test]
    fn transpose_moves_bits() {
        let orig: [u64; 64] =
            std::array::from_fn(|r| (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut m = orig;
        transpose64(&mut m);
        for (r, row) in m.iter().enumerate() {
            for (c, col) in orig.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn truth_table_of_identity_is_the_vector_index() {
        // 12 inputs: four whole blocks, inputs past the lane patterns.
        let mut n = Netlist::new("id");
        let ins: Vec<_> = (0..12).map(|i| n.input(format!("i{i}"))).collect();
        for (i, &x) in ins.iter().enumerate() {
            n.output(format!("o{i}"), x);
        }
        let table = LaneSim::new(&n).truth_table();
        assert!(table.iter().enumerate().all(|(v, &e)| e as usize == v));
    }

    #[test]
    #[should_panic(expected = "truth tables cover at most 32 inputs and 32 outputs")]
    fn truth_table_rejects_33_outputs() {
        let mut n = Netlist::new("wide_out");
        let a = n.input("a");
        for o in 0..33 {
            n.output(format!("o{o}"), a);
        }
        LaneSim::new(&n).truth_table();
    }

    #[test]
    fn truth_table_of_a_partial_word() {
        // 3 inputs: 8 vectors, fewer than one word's lanes.
        let n = xor_chain(3);
        let mut m = Netlist::new("wide");
        let a = m.input("a");
        m.input("b");
        m.input("c");
        m.output("a", a);
        assert_eq!(LaneSim::new(&n).truth_table(), vec![0, 1, 1, 0]);
        assert_eq!(LaneSim::new(&m).truth_table(), vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }
}
