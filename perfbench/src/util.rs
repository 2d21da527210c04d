//! Small shared pieces: a seeded generator, order statistics, the
//! process's peak resident set, and the metric sheet a run fills in.

use std::collections::BTreeMap;

/// SplitMix64: a tiny, seedable generator for benchmark inputs. The
/// same seed always yields the same stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)` as `f32`.
    pub fn sym_f32(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail of a latency sample: the highest of p99.9, p99, p95, p90 and
/// p75 (nearest rank) that still has at least ten samples above it.
/// Below twenty samples no such percentile exists and the median is
/// reported instead. Returns `(percentile, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
        if n - 1 - idx >= 10 {
            return (p, v[idx]);
        }
    }
    (50.0, median(xs))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next().and_then(|kb| kb.parse::<f64>().ok()))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics a run produced, keyed by name (units live in the metric
/// registry in `main.rs`).
#[derive(Debug, Default)]
pub struct Sheet {
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result (issue-named
    /// metrics and context such as which percentile a tail is).
    pub notes: Vec<String>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Outcome counts for the correctness gate.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Relative difference `|a - b| / max(|a|, 1)`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with exactly ten samples above it.
        assert_eq!(tail(&xs), (90.0, 90.0));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 6.5));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
