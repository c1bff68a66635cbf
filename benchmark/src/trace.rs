//! Spans recorded from outside the program: one around every call the
//! harness makes into a layer. Kept in memory, written out when the run
//! ends; a stage's self time is its span minus the part its children
//! cover.

use std::io::Write;
use std::time::Instant;

use crate::stats::{percentile, supported_tail};

/// The layer boundaries the harness can see. `Op` is the root of every
/// op; everything else is a call into the named crate/module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    Op,
    SqlParse,
    Optimize,
    ServeHit,
    ServeRematch,
    ServeMiss,
    Fingerprint,
    Lookup,
    Compile,
    Insert,
    Match,
    Store,
    Guideline,
    Reoptimize,
    Simulate,
    Publish,
    PrimaryApply,
    CatchUp,
    PrimaryFeed,
}

impl Stage {
    pub const ALL: [Stage; 19] = [
        Stage::Op,
        Stage::SqlParse,
        Stage::Optimize,
        Stage::ServeHit,
        Stage::ServeRematch,
        Stage::ServeMiss,
        Stage::Fingerprint,
        Stage::Lookup,
        Stage::Compile,
        Stage::Insert,
        Stage::Match,
        Stage::Store,
        Stage::Guideline,
        Stage::Reoptimize,
        Stage::Simulate,
        Stage::Publish,
        Stage::PrimaryApply,
        Stage::CatchUp,
        Stage::PrimaryFeed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Op => "harness.op",
            Stage::SqlParse => "sql.parse",
            Stage::Optimize => "optimizer.optimize",
            Stage::ServeHit => "core.serving.serve_hit",
            Stage::ServeRematch => "core.serving.serve_rematch",
            Stage::ServeMiss => "core.serving.serve_miss",
            Stage::Fingerprint => "core.serving.fingerprint",
            Stage::Lookup => "core.serving.lookup",
            Stage::Compile => "core.matching.compile",
            Stage::Insert => "core.serving.insert",
            Stage::Match => "core.matching.match",
            Stage::Store => "core.serving.store",
            Stage::Guideline => "qgm.guideline",
            Stage::Reoptimize => "optimizer.reoptimize",
            Stage::Simulate => "executor.simulate",
            Stage::Publish => "core.replication.publish",
            Stage::PrimaryApply => "core.replication.primary_apply",
            Stage::CatchUp => "core.replication.catch_up",
            Stage::PrimaryFeed => "core.replication.primary_feed",
        }
    }

    pub fn is_serve(self) -> bool {
        matches!(
            self,
            Stage::ServeHit | Stage::ServeRematch | Stage::ServeMiss
        )
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Shared by every span of one op.
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: what [`Tracer::exit`] needs to close it.
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Open {
    /// What an untraced probe hands out: nothing was opened.
    pub const NONE: Open = Open(NO_PARENT);
}

/// The span buffer of one traced run. Capacity is fixed up front, so
/// recording never allocates; a traced run ends before the buffer does.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Innermost open span.
    current: u32,
    ops: u32,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            current: NO_PARENT,
            ops: 0,
        }
    }

    /// A fresh identifier for the spans of one op.
    pub fn next_op(&mut self) -> u32 {
        self.ops += 1;
        self.ops - 1
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn remaining(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    #[inline]
    pub fn enter(&mut self, stage: Stage, op_id: u32) -> Open {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span buffer full: the traced pass was not sized against it"
        );
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stage,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            op_id,
        });
        self.current = idx;
        Open(idx)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Close a span under another stage name — a serve learns whether it
    /// was a hit, a re-match or a miss only after it has begun.
    #[inline]
    pub fn exit_as(&mut self, open: Open, stage: Stage) {
        self.exit(open);
        self.spans[open.0 as usize].stage = stage;
    }

    /// `(ops, total ns)` of the root spans recorded from index `mark` on.
    pub fn roots_since(&self, mark: usize) -> (usize, u64) {
        self.spans[mark..]
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.duration_ns()))
    }

    pub fn analyze(&self) -> TraceSummary {
        analyze(&self.spans)
    }

    /// Write every span as one JSON document.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"stages\":["
        )?;
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\"{}\"", stage.name())?;
        }
        writeln!(
            out,
            "],\"span_fields\":[\"stage\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{sep}[{},{},{},{parent},{}]",
                s.stage as u8, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-stage figures of a traced run.
#[derive(Debug, Clone, Default)]
pub struct StageSummary {
    pub spans: usize,
    /// Inclusive span durations, µs.
    pub incl_p50_us: f64,
    pub incl_p95_us: f64,
    /// Σ inclusive time ÷ Σ op time.
    pub incl_share: f64,
    /// Self times, µs.
    pub self_p50_us: f64,
    pub self_p95_us: f64,
    /// Σ self time ÷ Σ op time; over all stages these sum to 1.
    pub self_share: f64,
    pub incl_total_us: f64,
}

pub struct TraceSummary {
    pub ops: usize,
    stages: Vec<(Stage, StageSummary)>,
}

impl TraceSummary {
    pub fn stage(&self, stage: Stage) -> Option<&StageSummary> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, v)| v)
    }

    pub fn stages(&self) -> impl Iterator<Item = (Stage, &StageSummary)> {
        self.stages.iter().map(|(s, v)| (*s, v))
    }

    /// Inclusive share of several stages together (e.g. the three kinds
    /// of serve).
    pub fn incl_share_of(&self, pick: impl Fn(Stage) -> bool) -> f64 {
        self.stages()
            .filter(|(s, _)| pick(*s))
            .map(|(_, v)| v.incl_share)
            .sum()
    }

    /// The stage × {p50, p95, share} table of self times.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>9} {:>12} {:>12} {:>8}\n",
            "stage (self time)", "spans", "p50_us", "p95_us", "share"
        );
        let mut total = 0.0;
        for (stage, s) in self.stages() {
            total += s.self_share;
            out.push_str(&format!(
                "{:<34} {:>9} {:>12.3} {:>12.3} {:>8.4}\n",
                stage.name(),
                s.spans,
                s.self_p50_us,
                s.self_p95_us,
                s.self_share
            ));
        }
        out.push_str(&format!(
            "{:<34} {:>9} {:>12} {:>12} {:>8.4}\n",
            "sum", self.ops, "", "", total
        ));
        out
    }
}

pub fn analyze(spans: &[Span]) -> TraceSummary {
    let own = self_times_ns(spans);
    let (ops, op_total_ns) = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .fold((0usize, 0u64), |(n, ns), s| (n + 1, ns + s.duration_ns()));
    let op_total_us = op_total_ns as f64 / 1e3;
    // Inclusive and self durations, µs, bucketed by stage in one sweep.
    let mut buckets = vec![(Vec::new(), Vec::new()); Stage::ALL.len()];
    for (s, own_ns) in spans.iter().zip(&own) {
        let (incl, selfs) = &mut buckets[s.stage as usize];
        incl.push(s.duration_ns() as f64 / 1e3);
        selfs.push(*own_ns as f64 / 1e3);
    }
    let mut stages = Vec::new();
    for (stage, (mut incl, mut selfs)) in Stage::ALL.into_iter().zip(buckets) {
        if incl.is_empty() {
            continue;
        }
        let incl_total_us: f64 = incl.iter().sum();
        let self_total_us: f64 = selfs.iter().sum();
        incl.sort_unstable_by(f64::total_cmp);
        selfs.sort_unstable_by(f64::total_cmp);
        stages.push((
            stage,
            StageSummary {
                spans: incl.len(),
                incl_p50_us: percentile(&incl, 50.0),
                incl_p95_us: supported_tail(&incl),
                incl_share: incl_total_us / op_total_us,
                self_p50_us: percentile(&selfs, 50.0),
                self_p95_us: supported_tail(&selfs),
                self_share: self_total_us / op_total_us,
                incl_total_us,
            },
        ));
    }
    TraceSummary { ops, stages }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            stage,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // In µs: op [0,100) → serve [10,90) → match [20,70); op → parse
        // [0,10).
        let spans = [
            span(Stage::Op, 0, 100_000, NO_PARENT),
            span(Stage::SqlParse, 0, 10_000, 0),
            span(Stage::ServeMiss, 10_000, 90_000, 0),
            span(Stage::Match, 20_000, 70_000, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![10_000, 10_000, 30_000, 50_000]);
        let summary = analyze(&spans);
        assert_eq!(summary.ops, 1);
        let shares: f64 = summary.stages().map(|(_, s)| s.self_share).sum();
        assert!((shares - 1.0).abs() < 1e-12);
        let serve = summary.stage(Stage::ServeMiss).unwrap();
        assert_eq!(serve.incl_share, 0.8);
        assert_eq!(serve.self_share, 0.3);
        assert_eq!(summary.incl_share_of(Stage::is_serve), 0.8);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut tr = Tracer::with_capacity(8);
        let op = tr.enter(Stage::Op, 7);
        let serve = tr.enter(Stage::ServeMiss, 7);
        let lookup = tr.enter(Stage::Lookup, 7);
        tr.exit(lookup);
        tr.exit_as(serve, Stage::ServeHit);
        let simulate = tr.enter(Stage::Simulate, 7);
        tr.exit(simulate);
        tr.exit(op);
        let parents: Vec<u32> = tr.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 0]);
        assert_eq!(tr.spans[1].stage, Stage::ServeHit);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
        assert_eq!(tr.roots_since(0).0, 1);
        assert_eq!(tr.remaining(), 4);
    }
}
