//! The behavioural quantized inference engine.
//!
//! Every multiply in the network is served by a pluggable
//! [`Multiplier`] — the mechanism by which approximate units change
//! network behaviour, exactly as in ApproxTrain's LUT-based simulation.
//!
//! Quantization scheme: unsigned 8-bit activations (ReLU networks are
//! non-negative), signed 8-bit weights handled in **sign-magnitude**
//! form, so each product is an *unsigned* 8×8 multiplication — the
//! datatype the paper's approximate multipliers implement — with the
//! weight sign applied to the accumulator afterwards. Accumulation is
//! exact (a convolution output sums at most `in_channels · 9` 16-bit
//! products in `i32`, the classifier sums in `i64`); each convolution
//! requantizes by a calibrated right shift.
//!
//! ## The product table
//!
//! The multiplier is never called per MAC. A `ProductTable` tabulates
//! it once: one row of 256 `i32` products per signed 8-bit weight
//! value (indexed by the weight's two's-complement byte), one column
//! per `u8` activation, with the weight sign folded in —
//! `row(w)[a] = sign(w) · m(a, |w|)`. Row 0 and column 0 are zero, so
//! zero operands contribute nothing, exactly as if skipped. The table
//! holds 64 Ki entries (256 KB). A library circuit's table is read
//! straight off its exhaustive truth table: weight magnitudes reach
//! only 128, so rows need the first 33 024 of its 65 536 entries, and
//! no intermediate LUT is built.
//!
//! Convolutions run weight-stationary over zero-padded activations.
//! For each input channel, the nine kernel weights' table rows are
//! gathered at every output position's nine input activations and
//! their sum added to that position's accumulator. Output rows
//! are laid out at the padded row pitch, so one branch-free loop with
//! no bounds tests (a `u8` indexes a 256-entry row) sweeps the whole
//! plane; the two pitch columns past each row's end are discarded, and
//! padding taps read the zero border, i.e. column 0. The classifier
//! gathers the same way. Integer addition is exact, so the summation
//! order differs from a per-output loop without changing a single
//! logit.

use std::borrow::Cow;

use carma_multiplier::{ExactMultiplier, Multiplier, MultiplierCircuit};
use carma_netlist::LaneSim;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::tensor::Tensor;

/// A multiplier tabulated for the engine: signed products of every
/// 8-bit weight with every 8-bit activation (see the module docs).
pub(crate) struct ProductTable {
    /// `rows[w as u8][a]` = `sign(w) · m(a, |w|)`, zero when either
    /// operand is zero.
    rows: Box<[[i32; 256]; 256]>,
}

impl ProductTable {
    /// Tabulates `mult`.
    ///
    /// # Panics
    ///
    /// Panics if the multiplier is not 8 bits wide, or if it returns a
    /// product wider than the 16 bits of an 8×8 product.
    pub(crate) fn new(mult: &dyn Multiplier) -> Self {
        assert_eq!(mult.width(), 8, "engine requires an 8-bit multiplier");
        Self::tabulate(|magnitude| std::array::from_fn(|a| mult.multiply(a as u32, magnitude)))
    }

    /// Tabulates an 8-bit multiplier circuit from its truth table: the
    /// products with weight magnitude `m` are the 256 entries from
    /// `m << 8` on.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub(crate) fn from_circuit(circuit: &MultiplierCircuit) -> Self {
        assert_eq!(circuit.width(), 8, "engine requires an 8-bit multiplier");
        let sim = LaneSim::new(circuit.netlist());
        Self::tabulate(|magnitude| {
            let mut products = [0u32; 256];
            sim.fill_truth_table(u64::from(magnitude) << 8, &mut products);
            products.map(u64::from)
        })
    }

    /// Builds the table from `products(m)[a] = m(a, m)` for every
    /// weight magnitude `m` in `1..=128`.
    fn tabulate(mut products: impl FnMut(u32) -> [u64; 256]) -> Self {
        let mut rows: Box<[[i32; 256]; 256]> = vec![[0i32; 256]; 256]
            .into_boxed_slice()
            .try_into()
            .expect("256 rows");
        for magnitude in 1..=128u32 {
            let column = products(magnitude);
            let m = magnitude as i32;
            for w in [m, -m].into_iter().filter_map(|w| i8::try_from(w).ok()) {
                let row = &mut rows[usize::from(w as u8)];
                for a in 1..=255 {
                    let p = u16::try_from(column[a])
                        .map(i32::from)
                        .expect("an 8×8 product fits in 16 bits");
                    row[a] = if w < 0 { -p } else { p };
                }
            }
        }
        ProductTable { rows }
    }

    /// The products of weight `w` with every activation.
    fn row(&self, w: i8) -> &[i32; 256] {
        &self.rows[usize::from(w as u8)]
    }
}

/// Side of every convolution kernel. Convolutions are "same": stride
/// 1 and a one-pixel zero border, so output size equals input size.
/// The gather loop of `QConv::accumulate` is written out for 3×3.
const K: usize = 3;

/// A quantized 3×3 "same" convolution layer.
#[derive(Debug, Clone)]
pub struct QConv {
    in_channels: usize,
    out_channels: usize,
    /// Weights in `[out_c][in_c][ky][kx]` order.
    weights: Vec<i8>,
    /// Right-shift applied at requantization (calibrated).
    shift: u32,
}

/// A quantized fully connected layer.
#[derive(Debug, Clone)]
pub struct QLinear {
    in_features: usize,
    out_features: usize,
    /// Weights in `[out][in]` order.
    weights: Vec<i8>,
}

/// One layer of the behavioural network.
#[derive(Debug, Clone)]
pub enum QLayer {
    /// Convolution + ReLU + requantize.
    Conv(QConv),
    /// 2×2/2 max pooling.
    MaxPool,
    /// Final classifier (produces logits, no requantization).
    Linear(QLinear),
}

/// A small quantized CNN with pluggable multipliers.
///
/// Built via [`QuantizedNetwork::synthetic`], which creates the
/// fixed-seed reference network used for accuracy evaluation
/// (DESIGN.md §4: the ApproxTrain/ImageNet substitution).
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    input_channels: usize,
    input_hw: usize,
    classes: usize,
    layers: Vec<QLayer>,
}

impl QuantizedNetwork {
    /// Builds the synthetic reference network: a VGG-style stack
    /// `conv3×3(3→8) → pool → conv3×3(8→16) → pool → fc(16·(hw/4)² →
    /// classes)` with seeded random weights, requantization shifts
    /// calibrated on seeded random inputs.
    ///
    /// # Panics
    ///
    /// Panics if `input_hw` is not a positive multiple of 4 or
    /// `classes` is zero.
    pub fn synthetic(input_hw: usize, classes: usize, seed: u64) -> Self {
        assert!(
            input_hw > 0 && input_hw.is_multiple_of(4),
            "input_hw must be a positive multiple of 4"
        );
        assert!(classes > 0, "classes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = |n: usize| -> Vec<i8> {
            (0..n)
                .map(|_| rng.random_range(-127i32..=127) as i8)
                .collect()
        };
        let c1 = QConv {
            in_channels: 3,
            out_channels: 8,
            weights: weights(8 * 3 * K * K),
            shift: 0,
        };
        let c2 = QConv {
            in_channels: 8,
            out_channels: 16,
            weights: weights(16 * 8 * K * K),
            shift: 0,
        };
        let feat_hw = input_hw / 4;
        let fc = QLinear {
            in_features: 16 * feat_hw * feat_hw,
            out_features: classes,
            weights: weights(classes * 16 * feat_hw * feat_hw),
        };
        let mut net = QuantizedNetwork {
            input_channels: 3,
            input_hw,
            classes,
            layers: vec![
                QLayer::Conv(c1),
                QLayer::MaxPool,
                QLayer::Conv(c2),
                QLayer::MaxPool,
                QLayer::Linear(fc),
            ],
        };
        net.calibrate(seed ^ 0xCA11_B4A7);
        net
    }

    /// Input channel count.
    pub fn input_channels(&self) -> usize {
        self.input_channels
    }

    /// Input spatial size (height = width).
    pub fn input_hw(&self) -> usize {
        self.input_hw
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total multiplier invocations per forward pass.
    pub fn macs_per_inference(&self) -> u64 {
        let mut hw = self.input_hw;
        let mut macs = 0u64;
        for layer in &self.layers {
            match layer {
                QLayer::Conv(c) => {
                    macs += (c.out_channels * c.in_channels * K * K * hw * hw) as u64;
                }
                QLayer::MaxPool => hw /= 2,
                QLayer::Linear(l) => macs += (l.in_features * l.out_features) as u64,
            }
        }
        macs
    }

    /// Calibrates per-conv-layer requantization shifts so activations
    /// occupy the 8-bit range without saturating, using exact
    /// multiplication on seeded random inputs.
    fn calibrate(&mut self, seed: u64) {
        let exact = ProductTable::new(&ExactMultiplier::new(8));
        let mut rng = StdRng::seed_from_u64(seed);
        // One representative random input is enough: the network is
        // linear up to ReLU, so activation scale is input-scale driven.
        let input = Tensor::from_vec(
            self.input_channels,
            self.input_hw,
            self.input_hw,
            (0..self.input_channels * self.input_hw * self.input_hw)
                .map(|_| rng.random_range(0u32..=255) as u8)
                .collect(),
        );
        // Forward layer by layer, setting each shift from the observed
        // maximum accumulator value.
        let mut act = input;
        let n_layers = self.layers.len();
        for i in 0..n_layers {
            match &mut self.layers[i] {
                QLayer::Conv(conv) => {
                    let acc = conv.accumulate(&act, &exact);
                    let max = acc.iter().copied().max().unwrap_or(0).max(1);
                    // Smallest shift with max>>shift ≤ 255.
                    let mut shift = 0u32;
                    while (max >> shift) > 255 {
                        shift += 1;
                    }
                    conv.shift = shift;
                    act = conv.requantize(&acc, act.height());
                }
                QLayer::MaxPool => {
                    act = max_pool_2x2(&act);
                }
                QLayer::Linear(_) => {}
            }
        }
    }

    /// Runs one forward pass with the multiplier tabulated in `table`,
    /// returning the raw class logits.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network.
    pub(crate) fn forward(&self, input: &Tensor<u8>, table: &ProductTable) -> Vec<i64> {
        self.check_input(input);
        let mut act = Cow::Borrowed(input);
        let mut logits = Vec::new();
        for layer in &self.layers {
            match layer {
                QLayer::Conv(conv) => {
                    let acc = conv.accumulate(&act, table);
                    act = Cow::Owned(conv.requantize(&acc, act.height()));
                }
                QLayer::MaxPool => {
                    act = Cow::Owned(max_pool_2x2(&act));
                }
                QLayer::Linear(lin) => {
                    logits = lin.forward(&act, table);
                }
            }
        }
        logits
    }

    /// Runs a forward pass and returns the predicted class (argmax of
    /// the logits; ties break to the lower index).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub(crate) fn predict(&self, input: &Tensor<u8>, table: &ProductTable) -> usize {
        argmax(&self.forward(input, table))
    }

    fn check_input(&self, input: &Tensor<u8>) {
        assert_eq!(input.channels(), self.input_channels, "channel mismatch");
        assert_eq!(input.height(), self.input_hw, "height mismatch");
        assert_eq!(input.width(), self.input_hw, "width mismatch");
    }
}

impl QConv {
    /// Convolves `input`, returning raw ReLU-ed accumulators (flat
    /// `[out_c][y][x]`, same spatial size as the input).
    fn accumulate(&self, input: &Tensor<u8>, table: &ProductTable) -> Vec<i32> {
        let hw = input.height();
        // Zero-padded copy of the input at row pitch `pitch`: padding
        // taps read column 0 of the table row, which is zero.
        let pitch = hw + K - 1;
        let plane_len = pitch * pitch;
        let mut padded = vec![0u8; self.in_channels * plane_len];
        for (dst, src) in padded
            .chunks_exact_mut(plane_len)
            .zip(input.as_slice().chunks_exact(hw * hw))
        {
            for (y, src_row) in src.chunks_exact(hw).enumerate() {
                dst[(y + 1) * pitch + 1..][..hw].copy_from_slice(src_row);
            }
        }
        // Output pixel (y, x) accumulates at `y * pitch + x`; the last
        // row stops at its last real pixel, so every tap of every
        // position stays inside the padded plane.
        let span = (hw - 1) * pitch + hw;
        let mut wide = vec![0i32; span];
        let mut acc = Vec::with_capacity(self.out_channels * hw * hw);
        for filter in self.weights.chunks_exact(self.in_channels * K * K) {
            wide.fill(0);
            for (plane, taps) in padded
                .chunks_exact(plane_len)
                .zip(filter.chunks_exact(K * K))
            {
                let r: [&[i32; 256]; K * K] = std::array::from_fn(|t| table.row(taps[t]));
                // The K×K input window of output i: row ky of it is
                // window i of the plane's ky-th line of windows.
                let line = |ky: usize| plane[ky * pitch..][..span + K - 1].windows(K);
                let windows = line(0).zip(line(1)).zip(line(2));
                for (sum, ((a, b), c)) in wide[..span].iter_mut().zip(windows) {
                    let at = |row: &[i32; 256], x: u8| row[usize::from(x)];
                    *sum += at(r[0], a[0])
                        + at(r[1], a[1])
                        + at(r[2], a[2])
                        + at(r[3], b[0])
                        + at(r[4], b[1])
                        + at(r[5], b[2])
                        + at(r[6], c[0])
                        + at(r[7], c[1])
                        + at(r[8], c[2]);
                }
            }
            // ReLU, dropping the pitch columns.
            for row in wide.chunks(pitch) {
                acc.extend(row[..hw].iter().map(|&v| v.max(0)));
            }
        }
        acc
    }

    /// Requantizes ReLU-ed accumulators to u8 via the calibrated shift.
    fn requantize(&self, acc: &[i32], out_hw: usize) -> Tensor<u8> {
        let data = acc
            .iter()
            .map(|&v| ((v >> self.shift).min(255)) as u8)
            .collect();
        Tensor::from_vec(self.out_channels, out_hw, out_hw, data)
    }
}

impl QLinear {
    /// Dense forward returning raw logits.
    fn forward(&self, input: &Tensor<u8>, table: &ProductTable) -> Vec<i64> {
        let flat = input.as_slice();
        debug_assert_eq!(flat.len(), self.in_features, "fc input size mismatch");
        self.weights
            .chunks_exact(self.in_features)
            .map(|row| {
                row.iter()
                    .zip(flat)
                    .map(|(&w, &a)| i64::from(table.row(w)[usize::from(a)]))
                    .sum()
            })
            .collect()
    }
}

/// 2×2 stride-2 max pooling.
fn max_pool_2x2(input: &Tensor<u8>) -> Tensor<u8> {
    let c = input.channels();
    let out_h = input.height() / 2;
    let out_w = input.width() / 2;
    let mut out = Tensor::zeros(c, out_h, out_w);
    for ch in 0..c {
        for y in 0..out_h {
            for x in 0..out_w {
                let m = *[
                    input.get(ch, 2 * y, 2 * x),
                    input.get(ch, 2 * y, 2 * x + 1),
                    input.get(ch, 2 * y + 1, 2 * x),
                    input.get(ch, 2 * y + 1, 2 * x + 1),
                ]
                .into_iter()
                .max()
                .expect("four elements");
                *out.get_mut(ch, y, x) = m;
            }
        }
    }
    out
}

/// Index of the maximum element (ties break low).
fn argmax(values: &[i64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The scalar engine the product-table kernel replaced, kept as the
/// differential oracle: one multiplier call per MAC, zero operands
/// skipped, padding tested per tap.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn forward(
        net: &QuantizedNetwork,
        input: &Tensor<u8>,
        mult: &dyn Multiplier,
    ) -> Vec<i64> {
        assert_eq!(mult.width(), 8, "engine requires an 8-bit multiplier");
        net.check_input(input);
        let mut act = input.clone();
        let mut logits = Vec::new();
        for layer in &net.layers {
            match layer {
                QLayer::Conv(conv) => {
                    let acc = accumulate(conv, &act, mult);
                    act = requantize(conv, &acc, act.height());
                }
                QLayer::MaxPool => {
                    act = max_pool_2x2(&act);
                }
                QLayer::Linear(lin) => {
                    logits = linear(lin, &act, mult);
                }
            }
        }
        logits
    }

    pub(crate) fn predict(
        net: &QuantizedNetwork,
        input: &Tensor<u8>,
        mult: &dyn Multiplier,
    ) -> usize {
        argmax(&forward(net, input, mult))
    }

    fn accumulate(conv: &QConv, input: &Tensor<u8>, mult: &dyn Multiplier) -> Vec<i64> {
        const PADDING: isize = 1;
        let hw = input.height();
        let mut acc = vec![0i64; conv.out_channels * hw * hw];
        for oc in 0..conv.out_channels {
            for oy in 0..hw {
                for ox in 0..hw {
                    let mut sum = 0i64;
                    for ic in 0..conv.in_channels {
                        for ky in 0..K {
                            for kx in 0..K {
                                let iy = (oy + ky) as isize - PADDING;
                                let ix = (ox + kx) as isize - PADDING;
                                if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize {
                                    continue;
                                }
                                let a = *input.get(ic, iy as usize, ix as usize);
                                let w =
                                    conv.weights[((oc * conv.in_channels + ic) * K + ky) * K + kx];
                                if a == 0 || w == 0 {
                                    continue;
                                }
                                let p = mult.multiply(u32::from(a), w.unsigned_abs() as u32) as i64;
                                sum += if w < 0 { -p } else { p };
                            }
                        }
                    }
                    // ReLU.
                    acc[(oc * hw + oy) * hw + ox] = sum.max(0);
                }
            }
        }
        acc
    }

    fn requantize(conv: &QConv, acc: &[i64], hw: usize) -> Tensor<u8> {
        let data = acc
            .iter()
            .map(|&v| ((v >> conv.shift).min(255)) as u8)
            .collect();
        Tensor::from_vec(conv.out_channels, hw, hw, data)
    }

    fn linear(lin: &QLinear, input: &Tensor<u8>, mult: &dyn Multiplier) -> Vec<i64> {
        let flat = input.as_slice();
        let mut out = vec![0i64; lin.out_features];
        for (o, out_val) in out.iter_mut().enumerate() {
            let mut sum = 0i64;
            for (i, &a) in flat.iter().enumerate() {
                let w = lin.weights[o * lin.in_features + i];
                if a == 0 || w == 0 {
                    continue;
                }
                let p = mult.multiply(u32::from(a), w.unsigned_abs() as u32) as i64;
                sum += if w < 0 { -p } else { p };
            }
            *out_val = sum;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carma_multiplier::{
        ApproxGenome, LutMultiplier, MultiplierCircuit, MultiplierLibrary, ReductionKind,
    };

    fn random_input(seed: u64, c: usize, hw: usize) -> Tensor<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            c,
            hw,
            hw,
            (0..c * hw * hw)
                .map(|_| rng.random_range(0u32..=255) as u8)
                .collect(),
        )
    }

    /// An arbitrary 8×8 multiplier: every product an independent
    /// random 16-bit value — nothing like a truncation.
    #[derive(Debug)]
    struct RandomLut(Vec<u16>);

    impl RandomLut {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            RandomLut(
                (0..1 << 16)
                    .map(|_| rng.random_range(0u32..=0xFFFF) as u16)
                    .collect(),
            )
        }
    }

    impl Multiplier for RandomLut {
        fn width(&self) -> u32 {
            8
        }
        fn multiply(&self, a: u32, b: u32) -> u64 {
            u64::from(self.0[(a << 8 | b) as usize])
        }
        fn name(&self) -> &str {
            "random-lut"
        }
    }

    /// Asserts the table kernel reproduces the scalar oracle's logits
    /// and prediction on `input`.
    fn assert_matches_oracle(net: &QuantizedNetwork, input: &Tensor<u8>, mult: &dyn Multiplier) {
        let table = ProductTable::new(mult);
        let fast = net.forward(input, &table);
        assert_eq!(fast, oracle::forward(net, input, mult), "{}", mult.name());
        assert_eq!(
            net.predict(input, &table),
            oracle::predict(net, input, mult)
        );
    }

    #[test]
    fn synthetic_network_shape() {
        let net = QuantizedNetwork::synthetic(16, 10, 1);
        assert_eq!(net.classes(), 10);
        assert_eq!(net.input_hw(), 16);
        assert_eq!(net.input_channels(), 3);
        // conv1 55 296 + conv2 73 728 + fc 2 560 MACs.
        assert_eq!(net.macs_per_inference(), 55_296 + 73_728 + 2_560);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = QuantizedNetwork::synthetic(16, 10, 2);
        let input = random_input(3, 3, 16);
        let exact = ProductTable::new(&ExactMultiplier::new(8));
        let a = net.forward(&input, &exact);
        let b = net.forward(&input, &exact);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn lut_exact_matches_reference_exact() {
        let net = QuantizedNetwork::synthetic(16, 10, 3);
        let input = random_input(4, 3, 16);
        let exact = ProductTable::new(&ExactMultiplier::new(8));
        let circuit = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let lut = ProductTable::new(&LutMultiplier::compile(&circuit));
        assert_eq!(net.forward(&input, &exact), net.forward(&input, &lut));
    }

    #[test]
    fn approximate_multiplier_perturbs_logits() {
        let net = QuantizedNetwork::synthetic(16, 10, 4);
        let input = random_input(5, 3, 16);
        let exact = ProductTable::new(&ExactMultiplier::new(8));
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let approx = ProductTable::new(&LutMultiplier::compile(
            &ApproxGenome::truncation(4, 4).apply(&base),
        ));
        let l_exact = net.forward(&input, &exact);
        let l_approx = net.forward(&input, &approx);
        assert_ne!(l_exact, l_approx, "4-bit truncation must move logits");
        // But not unrecognizably: logits stay correlated (same sign of
        // ordering for the top class more often than not is checked at
        // the accuracy level; here just check scale).
        let max_exact = *l_exact.iter().max().unwrap() as f64;
        let max_approx = *l_approx.iter().max().unwrap() as f64;
        assert!((max_approx - max_exact).abs() / max_exact.abs().max(1.0) < 0.5);
    }

    #[test]
    fn predict_returns_class_index() {
        let net = QuantizedNetwork::synthetic(16, 7, 5);
        let input = random_input(6, 3, 16);
        let exact = ProductTable::new(&ExactMultiplier::new(8));
        let c = net.predict(&input, &exact);
        assert!(c < 7);
    }

    #[test]
    fn calibration_avoids_saturation() {
        // After calibration, a random input must produce at least one
        // non-zero activation and logits that are not all equal
        // (saturation would flatten everything to 255 or 0).
        let net = QuantizedNetwork::synthetic(16, 10, 6);
        let input = random_input(7, 3, 16);
        let logits = net.forward(&input, &ProductTable::new(&ExactMultiplier::new(8)));
        let all_same = logits.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "logits flat: {logits:?}");
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1, 3, 3]), 1);
        assert_eq!(argmax(&[5]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn max_pool_takes_window_maxima() {
        let t = Tensor::from_vec(1, 2, 2, vec![1u8, 9, 4, 2]);
        let p = max_pool_2x2(&t);
        assert_eq!(*p.get(0, 0, 0), 9);
    }

    #[test]
    #[should_panic(expected = "engine requires an 8-bit multiplier")]
    fn non_8bit_multiplier_rejected() {
        let _ = ProductTable::new(&ExactMultiplier::new(4));
    }

    #[test]
    #[should_panic(expected = "input_hw must be a positive multiple of 4")]
    fn bad_input_size_rejected() {
        let _ = QuantizedNetwork::synthetic(10, 10, 0);
    }

    #[test]
    fn circuit_table_matches_lut_tabulation() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        let modules = carma_netlist::parse_netlists(
            include_str!("../../../examples/libraries/approx8.v"),
            carma_netlist::ImportFormat::Verilog,
        )
        .unwrap();
        let circuits = [
            base.clone(),
            ApproxGenome::truncation(2, 3).apply(&base),
            carma_multiplier::families::broken_array(8, 6, ReductionKind::Wallace),
        ]
        .into_iter()
        .chain(
            modules
                .into_iter()
                .map(|nl| MultiplierCircuit::from_netlist(nl, 8)),
        );
        for circuit in circuits {
            let via_lut = ProductTable::new(&LutMultiplier::compile(&circuit));
            let direct = ProductTable::from_circuit(&circuit);
            assert!(via_lut.rows == direct.rows, "{}", circuit.netlist().name());
        }
    }

    #[test]
    fn table_folds_sign_and_zeroes_operand_zero() {
        let lut = RandomLut::new(1);
        let table = ProductTable::new(&lut);
        for w in i8::MIN..=i8::MAX {
            for a in 0..=255u8 {
                let expected = if w == 0 || a == 0 {
                    0
                } else {
                    let p = lut.multiply(u32::from(a), u32::from(w.unsigned_abs())) as i32;
                    if w < 0 {
                        -p
                    } else {
                        p
                    }
                };
                assert_eq!(table.row(w)[usize::from(a)], expected, "w={w} a={a}");
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_on_random_luts() {
        for seed in 0..4 {
            let net = QuantizedNetwork::synthetic(16, 10, 10 + seed);
            let lut = RandomLut::new(100 + seed);
            for sample in 0..3 {
                assert_matches_oracle(&net, &random_input(1000 * seed + sample, 3, 16), &lut);
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_on_truncations_and_other_sizes() {
        let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
        for (hw, classes) in [(16, 16), (8, 3), (4, 2)] {
            let net = QuantizedNetwork::synthetic(hw, classes, hw as u64);
            for t in [0, 2, 5, 7] {
                let lut = LutMultiplier::compile(&ApproxGenome::truncation(t, t).apply(&base));
                assert_matches_oracle(&net, &random_input(u64::from(t), 3, hw), &lut);
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_with_weight_minus_128() {
        // The synthetic generator never draws −128; plant it in every
        // layer so the table row of |w| = 128 is exercised.
        let mut net = QuantizedNetwork::synthetic(16, 10, 21);
        for layer in &mut net.layers {
            let weights = match layer {
                QLayer::Conv(c) => &mut c.weights,
                QLayer::Linear(l) => &mut l.weights,
                QLayer::MaxPool => continue,
            };
            for w in weights.iter_mut().step_by(7) {
                *w = i8::MIN;
            }
        }
        let lut = RandomLut::new(22);
        assert_matches_oracle(&net, &random_input(23, 3, 16), &lut);
        assert_matches_oracle(&net, &random_input(24, 3, 16), &ExactMultiplier::new(8));
    }

    #[test]
    fn kernel_matches_oracle_on_zero_activation_rows() {
        let net = QuantizedNetwork::synthetic(16, 10, 31);
        let lut = RandomLut::new(32);
        // Every other row zero, in every channel — borders included.
        let mut striped = random_input(33, 3, 16);
        for c in 0..3 {
            for y in (0..16).step_by(2) {
                for x in 0..16 {
                    *striped.get_mut(c, y, x) = 0;
                }
            }
        }
        assert_matches_oracle(&net, &striped, &lut);
        assert_matches_oracle(&net, &Tensor::zeros(3, 16, 16), &lut);
    }

    #[test]
    fn kernel_matches_oracle_on_imported_library_entries() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/libraries/approx8.v"
        );
        let text = std::fs::read_to_string(path).expect("fixture exists");
        let modules = carma_netlist::parse_netlists(&text, carma_netlist::ImportFormat::Verilog)
            .expect("fixture parses");
        assert!(!modules.is_empty());
        let net = QuantizedNetwork::synthetic(16, 16, 41);
        for (i, netlist) in modules.into_iter().enumerate() {
            let circuit = MultiplierCircuit::from_netlist(netlist, 8);
            let lut = LutMultiplier::compile(&circuit);
            assert_matches_oracle(&net, &random_input(42 + i as u64, 3, 16), &lut);
        }
        // And a whole builtin ladder, for good measure.
        let ladder = MultiplierLibrary::truncation_ladder(8, 2);
        for entry in ladder.entries() {
            let lut = LutMultiplier::compile(&entry.circuit);
            assert_matches_oracle(&net, &random_input(43, 3, 16), &lut);
        }
    }
}
