//! The run every workload shares: repeated set-up, the oracle, timed
//! passes inside a wall-clock budget, the traced replay, and the report.
//!
//! Load model: closed loop, one client, one generator thread. No
//! timers, no sleeps, no background compactor — so every count repeats.

use std::path::PathBuf;
use std::time::Instant;

use galo_core::MatchReport;

use crate::fixture::LearnStats;
use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::stats::{aggregate, median, peak_rss_mb, PassStats, PassTimer};
use crate::trace::{Stage, TraceSummary, Tracer};

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 22.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Passes a run makes however short its budget.
const MIN_PASSES: usize = 3;
/// Spans a traced run keeps (and writes out) at most.
const SPAN_CAPACITY: usize = 600_000;
/// Where traces and scratch stores go: `out/` beside this package's
/// manifest, inside the checkout the binary was built in.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two passes and one set-up: a smoke run, never a reported number.
    pub quick: bool,
}

/// Ops attempted and ops that errored, were refused, came back without
/// an epoch or disagreed with the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    #[inline]
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Work counted at the layer boundaries over the timed passes. With one
/// client and no timers each of these repeats exactly for a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub ops: u64,
    pub serves: u64,
    pub hits: u64,
    pub probes: u64,
    pub pruned: u64,
    pub rewrites: u64,
    pub candidates: u64,
    pub rejects: u64,
    pub evictions: u64,
    pub stale_drops: u64,
    pub publishes: u64,
}

impl Counts {
    /// Count one serve. A hit replays the cached report's counters; the
    /// matcher did none of that work this time, so only misses count.
    #[inline]
    pub fn serve(&mut self, report: &MatchReport) {
        self.serves += 1;
        if report.cache_hit {
            self.hits += 1;
        } else {
            self.probes += report.probes_executed as u64;
            self.pruned += report.probes_pruned as u64;
            self.rewrites += report.rewrites.len() as u64;
            self.candidates += report.candidates_considered as u64;
            self.rejects += (report.admission_rejects_card + report.admission_rejects_scan) as u64;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub tally: Tally,
    pub counts: Counts,
}

/// One benchmark workload. Set-up is `build` (owned inputs) then `warm`
/// (whatever borrows them: tiers, warmed caches); everything the timed
/// passes touch lives in the fixture or the state.
pub trait Workload {
    const NAME: &'static str;
    type Fixture;
    type State<'f>
    where
        Self: 'f;

    fn build(seed: u64) -> Self::Fixture;
    fn warm(fx: &Self::Fixture) -> Self::State<'_>;
    /// Compute the uncached answers the timed ops are checked against.
    fn oracle<'f>(fx: &'f Self::Fixture, st: &mut Self::State<'f>);
    fn acc<'a>(st: &'a mut Self::State<'_>) -> &'a mut Acc;
    fn learn_stats(fx: &Self::Fixture) -> LearnStats;
    /// A word that changes when the seeded op stream does.
    fn op_digest(fx: &Self::Fixture) -> u64;
    /// Latency samples one pass records.
    fn samples_per_pass(fx: &Self::Fixture) -> usize;
    /// Spans one traced pass records at most.
    fn spans_per_pass(fx: &Self::Fixture) -> usize;
    fn pass<'f>(
        fx: &'f Self::Fixture,
        st: &mut Self::State<'f>,
        timer: &mut PassTimer,
    ) -> PassStats;
    /// The same ops with a span around every call into a layer, each
    /// composed serve checked against `ServingTier::serve`.
    fn traced_pass<'f>(fx: &'f Self::Fixture, st: &mut Self::State<'f>, tr: &mut Tracer);
    /// Untimed checks after the last pass, and the layer readings only
    /// this workload can take.
    fn finish<'f>(fx: &'f Self::Fixture, st: &mut Self::State<'f>, layers: &mut Layers);
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub tally: Tally,
    pub passes: usize,
    pub setups: usize,
    /// The metrics of this mode: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    pub oracle_s: f64,
    pub op_digest: u64,
    pub stage_table: Option<String>,
    pub trace_file: Option<PathBuf>,
}

/// `a ÷ b`, and 0 where nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Run passes until the budget would not hold another. The budget
/// covers a pass's untimed construction too, so a run's wall time does
/// not depend on how a workload splits its pass.
fn budget_left(started: Instant, done: usize, opts: &RunOpts) -> bool {
    if opts.quick {
        return done < 2;
    }
    let elapsed = started.elapsed().as_secs_f64();
    done < MIN_PASSES || elapsed + elapsed / done as f64 <= opts.seconds
}

pub fn run<W: Workload>(opts: &RunOpts) -> RunReport {
    let reps = if opts.quick || opts.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::with_capacity(reps);
    for _ in 1..reps {
        let t0 = Instant::now();
        let fx = W::build(opts.seed);
        let st = W::warm(&fx);
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(st);
    }
    let t0 = Instant::now();
    let fx = W::build(opts.seed);
    let mut st = W::warm(&fx);
    setup_s.push(t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    W::oracle(&fx, &mut st);
    let oracle_s = t0.elapsed().as_secs_f64();

    let mut timer = PassTimer::with_capacity(W::samples_per_pass(&fx));
    let mut passes: Vec<PassStats> = Vec::new();
    let mut tracer = opts.trace.then(|| Tracer::with_capacity(SPAN_CAPACITY));
    let mut traced_ops_per_s: Vec<f64> = Vec::new();
    let mut traced_probes = 0;
    let started = Instant::now();
    while budget_left(started, passes.len() + traced_ops_per_s.len(), opts) {
        passes.push(W::pass(&fx, &mut st, &mut timer));
        let Some(tr) = tracer.as_mut() else {
            continue;
        };
        if tr.remaining() < W::spans_per_pass(&fx) {
            break;
        }
        let (mark, before) = (tr.len(), W::acc(&mut st).counts);
        W::traced_pass(&fx, &mut st, tr);
        let after = W::acc(&mut st).counts;
        traced_probes += after.probes - before.probes;
        let (ops, ns) = tr.roots_since(mark);
        traced_ops_per_s.push(ops as f64 / (ns as f64 / 1e9));
    }

    let mut layers = Layers::default();
    W::finish(&fx, &mut st, &mut layers);
    let acc = *W::acc(&mut st);
    let plain = aggregate(&passes);

    let mut report = RunReport {
        workload: W::NAME,
        seed: opts.seed,
        trace: opts.trace,
        tally: acc.tally,
        passes: passes.len() + traced_ops_per_s.len(),
        setups: reps,
        metrics: Vec::new(),
        oracle_s,
        op_digest: W::op_digest(&fx),
        stage_table: None,
        trace_file: None,
    };
    let Some(tracer) = tracer else {
        let values = [
            median(&setup_s),
            plain.ops_per_s,
            plain.p50_us,
            plain.p95_us,
            peak_rss_mb(),
        ];
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name,
                value,
                unit: m.unit,
            })
            .collect();
        return report;
    };

    let summary = tracer.analyze();
    fill_counts(&mut layers, &acc.counts);
    fill_spans(&mut layers, &summary, traced_probes);
    let learn = W::learn_stats(&fx);
    layers.set("core.learning.learn_s", learn.learn_s);
    layers.set("core.learning.subqueries_per_s", learn.subqueries_per_s());
    layers.set("core.learning.templates", learn.templates as f64);
    layers.set(
        "trace.overhead_ratio",
        median(&traced_ops_per_s) / plain.ops_per_s,
    );
    layers.set("oracle_s", oracle_s);
    report.metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: layers.get(m.name),
            unit: m.unit,
        })
        .collect();
    report.stage_table = Some(summary.render_table());
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", W::NAME));
    match tracer.write_json(&path, W::NAME, opts.seed) {
        Ok(()) => report.trace_file = Some(path),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    report
}

fn fill_counts(layers: &mut Layers, c: &Counts) {
    layers.set("core.serving.hit_ratio", ratio(c.hits, c.serves));
    layers.set("core.serving.evictions_per_op", ratio(c.evictions, c.ops));
    layers.set(
        "core.serving.stale_drops_per_publish",
        ratio(c.stale_drops, c.publishes),
    );
    layers.set("core.matching.probes_per_op", ratio(c.probes, c.ops));
    layers.set("core.matching.pruned_per_op", ratio(c.pruned, c.ops));
    layers.set(
        "core.matching.probe_success_ratio",
        ratio(c.rewrites, c.probes),
    );
    layers.set("core.kb.candidates_per_op", ratio(c.candidates, c.ops));
    layers.set(
        "core.kb.admission_reject_ratio",
        ratio(c.rejects, c.candidates),
    );
}

/// The span-derived readings: inclusive time of each call into a layer.
fn fill_spans(layers: &mut Layers, summary: &TraceSummary, traced_probes: u64) {
    let mut stage = |stage: Stage, p50: &'static str, p95: &'static str, share: &'static str| {
        let Some(s) = summary.stage(stage) else {
            return;
        };
        for (name, value) in [
            (p50, s.incl_p50_us),
            (p95, s.incl_p95_us),
            (share, s.incl_share),
        ] {
            if !name.is_empty() {
                layers.set(name, value);
            }
        }
    };
    stage(Stage::SqlParse, "sql.parse_us_p50", "", "sql.parse_share");
    stage(
        Stage::Optimize,
        "optimizer.optimize_us_p50",
        "optimizer.optimize_us_p95",
        "optimizer.optimize_share",
    );
    stage(
        Stage::Reoptimize,
        "optimizer.reoptimize_us_p50",
        "",
        "optimizer.reoptimize_share",
    );
    stage(
        Stage::Simulate,
        "executor.simulate_us_p50",
        "",
        "executor.simulate_share",
    );
    stage(Stage::Guideline, "qgm.guideline_us_p50", "", "");
    stage(
        Stage::Fingerprint,
        "core.serving.fingerprint_us_p50",
        "",
        "",
    );
    stage(Stage::Lookup, "core.serving.lookup_us_p50", "", "");
    stage(Stage::Store, "core.serving.store_us_p50", "", "");
    stage(Stage::ServeRematch, "core.serving.rematch_us_p50", "", "");
    stage(
        Stage::Compile,
        "core.matching.compile_us_p50",
        "",
        "core.matching.compile_share",
    );
    stage(
        Stage::Match,
        "core.matching.match_us_p50",
        "core.matching.match_us_p95",
        "core.matching.match_share",
    );
    stage(
        Stage::Publish,
        "core.replication.publish_us_p50",
        "core.replication.publish_us_p95",
        "",
    );
    stage(
        Stage::PrimaryApply,
        "core.replication.primary_apply_us_p50",
        "",
        "",
    );
    stage(
        Stage::CatchUp,
        "core.replication.catch_up_us_p50",
        "core.replication.catch_up_us_p95",
        "",
    );
    layers.set(
        "core.serving.serve_share",
        summary.incl_share_of(Stage::is_serve),
    );
    if let Some(m) = summary.stage(Stage::Match) {
        if traced_probes > 0 {
            layers.set(
                "core.matching.match_us_per_probe",
                m.incl_total_us / traced_probes as f64,
            );
        }
    }
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The run record: the driver's result object. `with_identity` adds
    /// the workload, seed and mode, for files `compare` reads back.
    pub fn to_json(&self, with_identity: bool) -> String {
        let mut out = String::from("{");
        if with_identity {
            out.push_str(&format!(
                "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
                self.workload, self.seed, self.trace
            ));
        }
        out.push_str(&format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest text that reads back as the same
            // f64: every digit measured, none invented.
            out.push_str(&format!(
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, then the result object as the
    /// last line.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  trace {}  passes {}  set-ups {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.passes,
            self.setups
        );
        if let Some(table) = &self.stage_table {
            print!("{table}");
        }
        for m in &self.metrics {
            println!("{:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{:<42} {:>16.6} ratio  ({} of {} ops failed)",
            "fail_ratio",
            ratio(self.tally.failed, self.tally.attempted),
            self.tally.failed,
            self.tally.attempted
        );
        if !self.trace {
            println!("{:<42} {:>16.6} s", "oracle_s", self.oracle_s);
        }
        if let Some(path) = &self.trace_file {
            println!("spans written to {}", path.display());
        }
        println!("{}", self.to_json(false));
    }
}
