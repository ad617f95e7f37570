//! Percentiles, process memory, and the machine's effective parallelism.

use std::time::Instant;

use fork_telemetry::HistogramSnapshot;

/// The `p`-th percentile (0–100) of `samples`, interpolating linearly
/// between closest ranks. `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly above the `p`-th percentile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Restarts the peak-resident-set count (`VmHWM`) from the current size.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(f64::NAN)
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x)
}

/// Effective parallel speed-up of `threads` ALU-bound threads over one:
/// `threads` × (one-thread time) / (all-threads time). A machine whose
/// cores are shared reads well below `threads`.
pub fn parallel_speedup(threads: usize) -> f64 {
    const ITERS: u64 = 40_000_000;
    let threads = threads.max(1);
    spin(ITERS / 4);
    let t = Instant::now();
    spin(ITERS);
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| spin(ITERS));
        }
    });
    let all = t.elapsed().as_secs_f64();
    threads as f64 * one / all.max(1e-9)
}

/// The samples `after` holds beyond `before` (two snapshots of one
/// cumulative histogram). Min and max are bucket bounds, not exact.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.wrapping_sub(before.sum),
        ..HistogramSnapshot::default()
    };
    for (i, (a, b)) in after.buckets.iter().zip(&before.buckets).enumerate() {
        d.buckets[i] = a.saturating_sub(*b);
    }
    let first = d.buckets.iter().position(|&c| c > 0);
    let last = d.buckets.iter().rposition(|&c| c > 0);
    if let (Some(lo), Some(hi)) = (first, last) {
        d.min = fork_telemetry::bucket_range(lo).0;
        d.max = fork_telemetry::bucket_range(hi).1.min(after.max);
    }
    d
}

/// SplitMix64: the benchmark's own seeded generator for shuffles, keys and
/// arrival times, independent of the program's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
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

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(beyond(&v, 50.0), 2);
    }

    #[test]
    fn histogram_delta_keeps_only_new_samples() {
        let mut before = HistogramSnapshot::default();
        before.record(10);
        let mut after = before.clone();
        after.record(1_000);
        after.record(1_100);
        let d = hist_delta(&after, &before);
        assert_eq!(d.count, 2);
        assert!(d.p50() >= 512, "p50 {}", d.p50());
    }
}
