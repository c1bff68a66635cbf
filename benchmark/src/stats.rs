//! The statistics every reported number goes through: nearest-rank
//! percentiles, the pass-median aggregation, grouped timing for ops too
//! fast to time alone, and the quartile spread `compare` judges by.

use std::time::Instant;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond the
/// `p`-th percentile, so the percentile is not set by a handful of ops.
pub fn tail_supported(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= MIN_BEYOND
}

/// p95, or the highest percentile below it that still has
/// [`MIN_BEYOND`] samples beyond — never lower than the median. For the
/// per-stage figures of a traced run, where a stage may have few spans.
pub fn supported_tail(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = |p: f64| ((p / 100.0) * n as f64).ceil() as usize;
    let r = rank(95.0).min(n.saturating_sub(MIN_BEYOND)).max(rank(50.0));
    sorted[r.clamp(1, n) - 1]
}

/// Sort in place and return `(p50, p95)`.
pub fn p50_p95(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_unstable_by(f64::total_cmp);
    (percentile(samples, 50.0), percentile(samples, 95.0))
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so `compare` and the
/// driver judge spread by the same rule.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// What one timed pass contributes to the run.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
}

/// Per-op latency samples of one pass plus its wall time. The sample
/// buffer is allocated once and reused, so a timed pass allocates
/// nothing here.
pub struct PassTimer {
    samples_us: Vec<f64>,
    started: Instant,
}

impl PassTimer {
    pub fn with_capacity(samples_per_pass: usize) -> Self {
        PassTimer {
            samples_us: Vec::with_capacity(samples_per_pass),
            started: Instant::now(),
        }
    }

    pub fn begin(&mut self) {
        self.samples_us.clear();
        self.started = Instant::now();
    }

    /// Record one op that started at `t0` and has just ended.
    #[inline]
    pub fn op(&mut self, t0: Instant) {
        self.samples_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }

    /// Record `group` ops that together started at `t0`: one sample, the
    /// group's mean. Wrapping a sub-microsecond op in two clock reads
    /// measures the clock; a group of 64 pays the two reads once.
    #[inline]
    pub fn group(&mut self, t0: Instant, group: usize) {
        self.samples_us
            .push(t0.elapsed().as_nanos() as f64 / 1e3 / group as f64);
    }

    /// Close the pass over `ops` ops (not samples: a grouped pass has
    /// fewer samples than ops).
    pub fn end(&mut self, ops: usize) -> PassStats {
        let wall = self.started.elapsed().as_secs_f64();
        assert!(
            tail_supported(self.samples_us.len(), 95.0),
            "a pass of {} samples cannot support p95",
            self.samples_us.len()
        );
        let (p50_us, p95_us) = p50_p95(&mut self.samples_us);
        PassStats {
            ops_per_s: ops as f64 / wall,
            p50_us,
            p95_us,
        }
    }
}

/// The run's figure for each timing metric: the median over passes, so
/// a pass that ran through a burst of interference moves the result by
/// one rank, not by its size.
pub fn aggregate(passes: &[PassStats]) -> PassStats {
    let pick = |f: fn(&PassStats) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    PassStats {
        ops_per_s: pick(|p| p.ops_per_s),
        p50_us: pick(|p| p.p50_us),
        p95_us: pick(|p| p.p95_us),
    }
}

/// `VmHWM` of this process in MB — peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // Nearest rank never interpolates: the result is always a sample.
        assert_eq!(percentile(&[1.0, 10.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 10.0], 51.0), 10.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(200, 95.0));
        assert!(!tail_supported(199, 95.0));
        assert!(tail_supported(215, 95.0));
        assert!(!tail_supported(256, 99.0));
        assert!(tail_supported(1000, 99.0));
    }

    #[test]
    fn a_short_sample_reports_the_tail_it_supports() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(supported_tail(&v), 380.0); // p95 proper
        assert_eq!(supported_tail(&v[..100]), 90.0); // ten beyond
        assert_eq!(supported_tail(&v[..15]), 8.0); // no tail: the median
        assert_eq!(supported_tail(&v[..1]), 1.0);
    }

    #[test]
    fn run_figure_is_the_median_pass() {
        let pass = |x: f64| PassStats {
            ops_per_s: x,
            p50_us: 10.0 * x,
            p95_us: 100.0 - x,
        };
        // One pass hit by interference (0.1) does not drag the result.
        let agg = aggregate(&[pass(5.0), pass(0.1), pass(4.0), pass(6.0), pass(5.5)]);
        assert_eq!(agg.ops_per_s, 5.0);
        assert_eq!(agg.p50_us, 50.0);
        assert_eq!(agg.p95_us, 95.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn grouped_sample_is_the_group_mean() {
        let mut t = PassTimer::with_capacity(256);
        t.begin();
        for _ in 0..256 {
            let t0 = Instant::now();
            std::thread::sleep(std::time::Duration::from_micros(640));
            t.group(t0, 64);
        }
        let stats = t.end(256 * 64);
        // 640 µs per group of 64 is at least 10 µs per op, and far less
        // than the 640 µs an ungrouped sample would have read.
        assert!(stats.p50_us >= 10.0 && stats.p50_us < 100.0, "{stats:?}");
        assert!(stats.ops_per_s < 100_000.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }
}
