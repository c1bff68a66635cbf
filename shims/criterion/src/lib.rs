//! Offline subset of the `criterion` benchmark harness.
//!
//! Implements the API surface the workspace benches use — `Criterion`,
//! `benchmark_group`/`bench_function`/`bench_with_input`, `BenchmarkId`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros — with
//! a simple measurement loop: a warm-up pass, then `sample_size` timed
//! samples whose median/mean/min are printed per benchmark. No plots, no
//! statistics beyond that; numbers are comparable within a run, which is
//! all the workspace's before/after comparisons need.
//!
//! Two environment variables drive CI:
//!
//! * `GALO_BENCH_QUICK=1` — quick mode: every benchmark takes at most
//!   [`QUICK_SAMPLE_SIZE`] samples regardless of configured sample sizes,
//!   so a full bench binary finishes in seconds instead of minutes.
//! * `GALO_BENCH_JSON=<path>` — on harness drop, write every collected
//!   result as a JSON array (`name`/`median_ns`/`mean_ns`/`min_ns`/
//!   `p50_ns`/`p99_ns`/`samples` per entry), the artifact CI uploads to
//!   track the perf trajectory across PRs. Percentiles use the
//!   nearest-rank method over the sorted samples, so `p50` equals the
//!   reported median and `p99` is the tail (with few samples — quick
//!   mode — it degrades to the max, which is the conservative
//!   direction). Serve and publish latencies are not timed here: the
//!   `galo-e2e` benchmark (`benchmark/`) carries those.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Sample cap applied when `GALO_BENCH_QUICK` is set.
pub const QUICK_SAMPLE_SIZE: usize = 2;

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Timing loop handle passed to bench closures.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    sample_size: usize,
}

impl Bencher<'_> {
    /// Measure `routine`: one warm-up call, then `sample_size` timed calls.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine());
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
        }
    }
}

/// One finished benchmark, as recorded for the JSON results file.
#[derive(Debug, Clone)]
struct BenchRecord {
    name: String,
    median_ns: u128,
    mean_ns: u128,
    min_ns: u128,
    p50_ns: u128,
    p99_ns: u128,
    samples: usize,
}

/// Nearest-rank percentile over sorted samples: the smallest sample
/// such that at least `pct` percent of samples are ≤ it.
fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    debug_assert!(!sorted.is_empty());
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Minimal JSON string escaping for benchmark names.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write the results file atomically: full contents to a sibling temp
/// file, then rename over `path`. CI uploads whatever file exists at
/// `GALO_BENCH_JSON` — a direct `fs::write` interrupted mid-way (or a
/// partial run's artifact) would be uploaded as if it were valid, so the
/// final path only ever holds a complete document.
fn write_json(path: &std::path::Path, results: &[BenchRecord]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"name\":\"{}\",\"median_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"samples\":{}}}{sep}\n",
            json_escape(&r.name),
            r.median_ns,
            r.mean_ns,
            r.min_ns,
            r.p50_ns,
            r.p99_ns,
            r.samples
        ));
    }
    out.push_str("]\n");
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Top-level harness state.
pub struct Criterion {
    sample_size: usize,
    /// `GALO_BENCH_QUICK`: cap every benchmark at [`QUICK_SAMPLE_SIZE`]
    /// samples, overriding configured sample sizes (CI's fast lane).
    quick: bool,
    /// `GALO_BENCH_JSON`: where to write collected results on drop.
    json_path: Option<std::path::PathBuf>,
    results: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            quick: env_flag("GALO_BENCH_QUICK"),
            json_path: std::env::var_os("GALO_BENCH_JSON").map(Into::into),
            results: Vec::new(),
        }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let Some(path) = &self.json_path else { return };
        // A panicking bench unwinds through this drop with a partial (or
        // empty) result set. Publishing that would hand CI a truncated
        // artifact that uploads as if the run succeeded — leave whatever
        // artifact a previous good run produced untouched instead.
        if std::thread::panicking() {
            eprintln!(
                "bench panicked; not writing partial results to {}",
                path.display()
            );
            return;
        }
        if let Err(e) = write_json(path, &self.results) {
            eprintln!("failed to write bench results to {}: {e}", path.display());
        } else {
            println!(
                "wrote {} bench result(s) to {}",
                self.results.len(),
                path.display()
            );
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// The sample count actually used: quick mode caps every request.
    fn effective_sample_size(&self, requested: usize) -> usize {
        if self.quick {
            requested.min(QUICK_SAMPLE_SIZE)
        } else {
            requested
        }
    }

    /// Report one finished benchmark: print the human-readable line and
    /// retain the record for the JSON results file.
    fn record(&mut self, name: &str, samples: &[Duration]) {
        if samples.is_empty() {
            println!("{name:<48} (no samples)");
            return;
        }
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let total: Duration = sorted.iter().sum();
        let mean = total / sorted.len() as u32;
        let p50 = percentile(&sorted, 50.0);
        let p99 = percentile(&sorted, 99.0);
        println!(
            "{name:<48} median {median:>12.3?}  mean {mean:>12.3?}  min {min:>12.3?}  p50 {p50:>12.3?}  p99 {p99:>12.3?}  ({} samples{})",
            sorted.len(),
            if self.quick { ", quick" } else { "" },
        );
        self.results.push(BenchRecord {
            name: name.to_string(),
            median_ns: median.as_nanos(),
            mean_ns: mean.as_nanos(),
            min_ns: min.as_nanos(),
            p50_ns: p50.as_nanos(),
            p99_ns: p99.as_nanos(),
            samples: sorted.len(),
        });
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut samples = Vec::new();
        let sample_size = self.effective_sample_size(self.sample_size);
        f(&mut Bencher {
            samples: &mut samples,
            sample_size,
        });
        self.record(name, &samples);
        self
    }

    /// Record a plain scalar measurement (a count, a ratio scaled to an
    /// integer, a byte size) alongside the timing results, so benches
    /// can export quality metrics — admission rejects, false-positive
    /// counts, catalog bytes — into the same JSON artifact CI uploads.
    /// The value lands in every `*_ns` field of one single-sample
    /// record; interpret it by name, not unit.
    pub fn metric(&mut self, name: &str, value: u128) -> &mut Self {
        println!("{name:<48} value {value}");
        self.results.push(BenchRecord {
            name: name.to_string(),
            median_ns: value,
            mean_ns: value,
            min_ns: value,
            p50_ns: value,
            p99_ns: value,
            samples: 1,
        });
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size,
        }
    }
}

/// A named group of related benchmarks. A `sample_size` override is
/// scoped to the group, as in real criterion.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    fn run_one<F>(&mut self, id: impl Display, mut f: F)
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut samples = Vec::new();
        let sample_size = self.criterion.effective_sample_size(self.sample_size);
        f(&mut Bencher {
            samples: &mut samples,
            sample_size,
        });
        self.criterion
            .record(&format!("{}/{}", self.name, id), &samples);
    }

    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        self.run_one(id, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        self.run_one(id, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// `criterion_group!`: both the struct form (`name = ...; config = ...;
/// targets = ...`) and the positional form (`group_name, target, ...`).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

/// `criterion_main!`: emit `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default().sample_size(3);
        c.quick = false; // immune to the ambient environment
        let mut calls = 0u32;
        c.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        // One warm-up plus three samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn group_bench_with_input_passes_input() {
        let mut c = Criterion::default().sample_size(2);
        c.quick = false;
        let mut group = c.benchmark_group("g");
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(7), &21u64, |b, &x| {
            b.iter(|| {
                seen = x;
            })
        });
        group.finish();
        assert_eq!(seen, 21);
    }

    #[test]
    fn metrics_land_in_the_json_artifact() {
        let dir = std::env::temp_dir().join(format!(
            "galo-criterion-metric-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_metric.json");
        {
            let mut c = Criterion::default().sample_size(2);
            c.quick = false;
            c.json_path = Some(path.clone());
            c.metric("admission/false_admissions", 42);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"name\":\"admission/false_admissions\""),
            "{text}"
        );
        assert!(text.contains("\"median_ns\":42"), "{text}");
        assert!(text.contains("\"samples\":1"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(
            BenchmarkId::from_parameter("8tables").to_string(),
            "8tables"
        );
    }

    #[test]
    fn quick_mode_caps_every_sample_size() {
        let mut c = Criterion::default().sample_size(50);
        c.quick = true;
        let mut calls = 0u32;
        c.bench_function("capped", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        // One warm-up plus QUICK_SAMPLE_SIZE samples, not 50.
        assert_eq!(calls, 1 + QUICK_SAMPLE_SIZE as u32);
        // Group-level overrides are capped too.
        let mut group_calls = 0u32;
        let mut group = c.benchmark_group("g");
        group.sample_size(40).bench_function("capped", |b| {
            b.iter(|| {
                group_calls += 1;
            })
        });
        group.finish();
        assert_eq!(group_calls, 1 + QUICK_SAMPLE_SIZE as u32);
    }

    #[test]
    fn json_results_file_is_written_on_drop() {
        let dir = std::env::temp_dir().join(format!(
            "galo-criterion-json-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        {
            let mut c = Criterion::default().sample_size(2);
            c.quick = false;
            c.json_path = Some(path.clone());
            c.bench_function("alpha \"quoted\"", |b| b.iter(|| 1 + 1));
            let mut group = c.benchmark_group("grp");
            group.bench_function("beta", |b| b.iter(|| 2 + 2));
            group.finish();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"), "{text}");
        assert!(text.contains("\"name\":\"alpha \\\"quoted\\\"\""), "{text}");
        assert!(text.contains("\"name\":\"grp/beta\""), "{text}");
        assert!(text.contains("\"median_ns\":"), "{text}");
        assert!(text.contains("\"p50_ns\":"), "{text}");
        assert!(text.contains("\"p99_ns\":"), "{text}");
        assert_eq!(text.matches("\"samples\":2").count(), 2, "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panicking_bench_leaves_no_partial_artifact() {
        let dir = std::env::temp_dir().join(format!(
            "galo-criterion-panic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_panic.json");
        // A previous good run's artifact must survive the panic untouched.
        std::fs::write(&path, "[]\n").unwrap();
        let path2 = path.clone();
        let result = std::panic::catch_unwind(move || {
            let mut c = Criterion::default().sample_size(2);
            c.quick = false;
            c.json_path = Some(path2);
            c.bench_function("ok-before-panic", |b| b.iter(|| 1 + 1));
            panic!("bench blew up");
            // `c` drops here while unwinding.
        });
        assert!(result.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]\n");
        // No stray temp file either.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_write_is_atomic_rename_with_no_temp_left_behind() {
        let dir = std::env::temp_dir().join(format!(
            "galo-criterion-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_atomic.json");
        // Stale artifact from an earlier run gets replaced wholesale.
        std::fs::write(&path, "stale garbage").unwrap();
        {
            let mut c = Criterion::default().sample_size(2);
            c.quick = false;
            c.json_path = Some(path.clone());
            c.metric("policy/p99_ns", 7);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"), "{text}");
        assert!(text.contains("\"name\":\"policy/p99_ns\""), "{text}");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries.len(), 1, "only the final artifact: {entries:?}");
        // Writing into a missing directory fails cleanly (no temp litter
        // anywhere we could check, but the error must surface).
        let gone = dir.join("no-such-subdir").join("BENCH_x.json");
        assert!(write_json(&gone, &[]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ms = |n: u64| Duration::from_millis(n);
        // 1..=100 ms: p50 is the 50th sample, p99 the 99th.
        let sorted: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&sorted, 50.0), ms(50));
        assert_eq!(percentile(&sorted, 99.0), ms(99));
        assert_eq!(percentile(&sorted, 100.0), ms(100));
        // Few samples (quick mode): p99 degrades to the max.
        let tiny = vec![ms(1), ms(2)];
        assert_eq!(percentile(&tiny, 50.0), ms(1));
        assert_eq!(percentile(&tiny, 99.0), ms(2));
        let one = vec![ms(7)];
        assert_eq!(percentile(&one, 50.0), ms(7));
        assert_eq!(percentile(&one, 99.0), ms(7));
    }

    #[test]
    fn env_flag_semantics() {
        // Parsing rules, not ambient env: set/unset is racy across
        // threads, so exercise the values through a scoped helper.
        assert!(!env_flag("GALO_BENCH_QUICK_SURELY_UNSET_VAR"));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
