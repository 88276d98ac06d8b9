//! Small, dependency-free helpers the workloads share: seed derivation,
//! the zipf draw, order statistics with the ten-samples-beyond rule,
//! and the `/proc/self/status` memory reader.

/// Every tail percentile must have at least this many samples beyond
/// it, or it is refused rather than reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The splitmix64 finalizer: a bijective 64-bit mix.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Independent stream `stream` of the workload seed `seed`. Every
/// input the benchmark generates (GA seeds, zipf draws) comes from here.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ mix64(stream))
}

/// A GA seed from stream `stream` of the workload seed. Kept to 32
/// bits: a spec's JSON carries its seed as a number, and the vendored
/// JSON layer does not round-trip integers above 2^53.
pub fn ga_seed(seed: u64, stream: u64) -> u64 {
    derive(seed, stream) >> 32
}

/// A uniform draw in `[0, 1)` from 53 mixed bits.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A zipf distribution over ranks `0..n`: rank `k` has weight
/// `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty pool");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw number `index` of the sequence fixed by `seed`, from the
    /// distribution cut to ranks `0..n` (`n` clamped to `1..=len`): a
    /// pure function of its arguments, so any thread can take any
    /// index.
    pub fn draw(&self, seed: u64, index: u64, n: usize) -> usize {
        let n = n.clamp(1, self.cdf.len());
        let u = unit(derive(seed, index)) * self.cdf[n - 1];
        self.cdf[..n].partition_point(|&c| c <= u).min(n - 1)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q` percentile, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie above it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((v.len() as f64) * q).ceil() as usize;
    if rank == 0 || v.len() - rank.min(v.len()) < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// The value of a `kB` line (`VmHWM:    1234 kB`) of a
/// `/proc/<pid>/status` text, in bytes.
pub fn status_bytes(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// `key` (`VmHWM`, `VmRSS`) of this process, in bytes.
pub fn self_status_bytes(key: &str) -> Option<u64> {
    status_bytes(&std::fs::read_to_string("/proc/self/status").ok()?, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_are_deterministic_per_seed() {
        let z = Zipf::new(120, 1.0);
        let a: Vec<usize> = (0..500).map(|i| z.draw(7, i, 120)).collect();
        let b: Vec<usize> = (0..500).map(|i| z.draw(7, i, 120)).collect();
        let c: Vec<usize> = (0..500).map(|i| z.draw(8, i, 120)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&k| k < 120));
        // Cut to the first ranks: same seed, same draws, all below n.
        let cut: Vec<usize> = (0..500).map(|i| z.draw(7, i, 5)).collect();
        assert_eq!(cut, (0..500).map(|i| z.draw(7, i, 5)).collect::<Vec<_>>());
        assert!(cut.iter().all(|&k| k < 5));
        assert!((0..5).all(|k| cut.contains(&k)));
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(120, 1.0);
        let draws: Vec<usize> = (0..20_000).map(|i| z.draw(3, i, 120)).collect();
        let top = draws.iter().filter(|&&k| k == 0).count();
        let tail = draws.iter().filter(|&&k| k == 119).count();
        assert!(top > 20 * tail.max(1), "top {top} vs tail {tail}");
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        assert_eq!(percentile(&hundred[..99], 0.90), None);
        assert_eq!(percentile(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rss_reader_parses_proc_status() {
        let text = "Name:\tperfbench\nVmPeak:\t  2048 kB\nVmHWM:\t   1500 kB\nVmRSS:\t  1200 kB\n";
        assert_eq!(status_bytes(text, "VmHWM"), Some(1500 * 1024));
        assert_eq!(status_bytes(text, "VmRSS"), Some(1200 * 1024));
        assert_eq!(status_bytes(text, "VmSwap"), None);
        assert!(self_status_bytes("VmHWM").is_some_and(|b| b > 0));
        // One snapshot: other tests allocate while this one reads.
        let own = std::fs::read_to_string("/proc/self/status").unwrap();
        let hwm = status_bytes(&own, "VmHWM").expect("VmHWM in /proc/self/status");
        let rss = status_bytes(&own, "VmRSS").expect("VmRSS in /proc/self/status");
        assert!(hwm >= rss && rss > 0);
    }
}
