//! The metric tables: one place for every name, unit, direction and
//! bound the run prints, `compare` judges by and `BENCHMARK.json`
//! records (a unit test holds the three together).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. Sized from the measured
    /// run-to-run spread on the reference box (README, "Noise study").
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// A per-layer metric. Its direction is recorded in `BENCHMARK.json`
/// only: nothing here judges by it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count that must repeat bit for bit for a given seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 53] = [
    timed("sql.parse_us_p50", "us"),
    timed("sql.parse_share", "ratio"),
    timed("optimizer.optimize_us_p50", "us"),
    timed("optimizer.optimize_us_p95", "us"),
    timed("optimizer.optimize_share", "ratio"),
    timed("optimizer.reoptimize_us_p50", "us"),
    timed("optimizer.reoptimize_share", "ratio"),
    timed("executor.simulate_us_p50", "us"),
    timed("executor.simulate_share", "ratio"),
    exact("executor.reopt_runtime_ratio", "ratio"),
    exact("executor.regressed_queries", "count"),
    timed("qgm.guideline_us_p50", "us"),
    timed("core.serving.fingerprint_us_p50", "us"),
    timed("core.serving.lookup_us_p50", "us"),
    timed("core.serving.store_us_p50", "us"),
    exact("core.serving.evictions_per_op", "count"),
    exact("core.serving.hit_ratio", "ratio"),
    exact("core.serving.stale_drops_per_publish", "count"),
    timed("core.serving.rematch_us_p50", "us"),
    timed("core.serving.serve_share", "ratio"),
    timed("core.matching.compile_us_p50", "us"),
    timed("core.matching.compile_share", "ratio"),
    timed("core.matching.match_us_p50", "us"),
    timed("core.matching.match_us_p95", "us"),
    timed("core.matching.match_share", "ratio"),
    timed("core.matching.match_us_per_probe", "us"),
    exact("core.matching.probes_per_op", "count"),
    exact("core.matching.pruned_per_op", "count"),
    exact("core.matching.probe_success_ratio", "ratio"),
    exact("core.kb.candidates_per_op", "count"),
    exact("core.kb.admission_reject_ratio", "ratio"),
    exact("core.kb.templates", "count"),
    timed("core.learning.learn_s", "s"),
    timed("core.learning.subqueries_per_s", "1/s"),
    exact("core.learning.templates", "count"),
    timed("core.replication.publish_us_p50", "us"),
    timed("core.replication.publish_us_p95", "us"),
    timed("core.replication.primary_apply_us_p50", "us"),
    timed("core.replication.catch_up_us_p50", "us"),
    timed("core.replication.catch_up_us_p95", "us"),
    timed("core.replication.cold_start_ms", "ms"),
    exact("core.replication.frames_per_publish", "count"),
    exact("core.replication.retries", "count"),
    exact("rdf.wire.bytes_per_publish", "bytes"),
    exact("rdf.wire.feed_bytes_per_publish", "bytes"),
    exact("rdf.persist.wal_bytes_per_template", "bytes"),
    exact("rdf.persist.wal_records_per_template", "count"),
    timed("rdf.persist.space_amp", "ratio"),
    timed("rdf.persist.compact_ms", "ms"),
    timed("rdf.persist.reopen_ms", "ms"),
    exact("rdf.shard.imbalance", "ratio"),
    timed("trace.overhead_ratio", "ratio"),
    timed("oracle_s", "s"),
];

/// The per-layer readings of one run. A layer the workload never enters
/// reads 0: the run reports every per-layer metric on every workload.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads and these tables are
    /// what the binary prints; they must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<Json>> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| fields.iter().map(|f| m.get(f).unwrap().clone()).collect())
                .collect()
        };
        let text = |s: &str| Json::Str(s.to_string());
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    text(m.name),
                    text(m.unit),
                    text(m.better.as_str()),
                    Json::Num(m.bound),
                ]
            })
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            e2e
        );
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| vec![text(m.name), text(m.unit)])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit"]), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::harness::RUN_SECONDS)
        );
    }
}
