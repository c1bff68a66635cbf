//! # galo-core
//!
//! GALO — *Guided Automated Learning for query workload re-Optimization*
//! (Damasio et al., VLDB 2019) — reproduced as a Rust library.
//!
//! GALO is a third tier of query optimization. Offline, the
//! [`learning`] engine decomposes workload queries into sub-queries,
//! benchmarks random alternative plans against the optimizer's choices on
//! a real runtime, and abstracts consistently-winning rewrites into
//! problem-pattern templates stored in an RDF [`kb`] (knowledge base).
//! Online, the [`matching`] engine segments an incoming query's plan,
//! matches the segments against the knowledge base — the paper's
//! generated SPARQL (see [`transform`]) restated over the knowledge
//! base's signature index, with the SPARQL itself kept as the [`oracle`]
//! — and re-optimizes the query under the matched OPTGUIDELINES document.
//!
//! Entry point: [`Galo`].
//!
//! ```
//! use galo_core::{Galo, LearningConfig};
//!
//! // A miniature workload with a planted estimation quirk.
//! # fn tiny_workload() -> galo_workloads::Workload {
//! #   use galo_catalog::*;
//! #   let mut b = DatabaseBuilder::new("doc", SystemConfig::default_1gb());
//! #   let mut fact = Table::new("FACT", vec![col("F_A", ColumnType::Integer),
//! #       col("F_P", ColumnType::Varchar(180))]);
//! #   fact.add_index(Index { name: "F_A_IX".into(), column: ColumnId(0),
//! #       unique: false, cluster_ratio: 0.93 });
//! #   let f = b.add_table(fact, 1_441_000, vec![
//! #       ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
//! #       ColumnStats::uniform(500_000, 0.0, 1e6, 90)]);
//! #   let d = b.add_table(Table::new("DIM", vec![col("D_SK", ColumnType::Integer),
//! #       col("D_S", ColumnType::Varchar(4))]), 50_000, vec![
//! #       ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
//! #       ColumnStats::uniform(50, 0.0, 1e6, 2).with_frequent(vec![
//! #           (Value::Str("TX".into()), 6_000)])]);
//! #   // Stale belief: the optimizer under-estimates the predicate.
//! #   *b.belief_mut().column_mut(d, ColumnId(1)) = ColumnStats::uniform(5_000, 0.0, 1e6, 2);
//! #   b.plant_stale_cluster_ratio(f, IndexId(0), 0.03);
//! #   let db = b.build();
//! #   let q = galo_sql::parse(&db, "q1",
//! #       "SELECT f_p FROM dim, fact WHERE d_sk = f_a AND d_s = 'TX'").unwrap();
//! #   galo_workloads::Workload { name: "doc".into(), db, queries: vec![q] }
//! # }
//! let workload = tiny_workload();
//! let galo = Galo::new();
//! let report = galo.learn(&workload, &LearningConfig::default());
//! assert!(report.templates_learned >= 1);
//! let outcome = galo.reoptimize(&workload, 0).unwrap();
//! assert!(outcome.improved());
//! ```

pub mod builder;
pub mod cluster;
pub mod diagnostics;
pub mod expert;
pub mod feedback;
pub mod galo;
pub mod kb;
pub mod learning;
pub mod matching;
pub mod oracle;
pub mod ranking;
pub mod replication;
pub mod serving;
mod sigindex;
pub mod transform;
pub mod vocab;

pub use builder::KbBuilder;
pub use cluster::{
    learn_workload_cluster, ClusterConfig, ClusterReport, LearnerNode, MinedSlice, NodeReport,
};
pub use diagnostics::{
    diagnose, evolution_report, render_evolution_report, Diagnosis, NearMiss, Rejection,
    RewriteClass, Suspect,
};
pub use expert::{expert_diagnose, ExpertConfig, ExpertOutcome};
pub use feedback::{
    FeedbackCollector, FeedbackOptions, FeedbackReport, PopObservation, RefineOutcome,
    TemplateRefinement, DEFAULT_DECAY,
};
pub use galo::{Galo, QueryReoptResult, WorkloadReoptReport};
pub use kb::{
    abstract_plan, AdmissionQuery, AdmissionStats, DatasetStats, KnowledgeBase, PopCheck, Range,
    ScanCheck, StatSketch, Template, TemplatePop, TemplateScan,
};
pub use learning::{learn_workload, LearnedTemplate, LearningConfig, LearningReport};
pub use matching::{
    candidate_verdicts, compile_plan, match_compiled, match_plan, reoptimize_query,
    CandidateVerdict, CompiledPlan, CompiledSegment, MatchConfig, MatchConfigBuilder,
    MatchConfigError, MatchMiss, MatchReport, MatchedRewrite, ReoptOutcome,
};
pub use ranking::{better, kmeans2, score_runs, PlanScore, TIE_EPSILON};
pub use replication::{
    learn_workload_replicated, loopback, CatchUpError, FaultCounters, FaultPlan, FaultyLink,
    FeedEvent, Link, LoopEnd, PeerState, Primary, PublishError, PublishReceipt, PublishStats,
    Publisher, Replica, ReplicaServe, ReplicaStats, ReplicatedNodeReport, ReplicatedReport,
    ReplicationConfig, RetryPolicy, StaleReplica,
};
pub use serving::{
    plan_fingerprint, CacheCounters, CacheLookup, ProbeCache, ServeOutcome, ServingTier,
};
pub use transform::{
    qgm_to_rdf, segment_card_checks, segment_pop_checks, segment_scan_qualifiers, segment_to_probe,
    segment_to_sparql, segment_to_sparql_opt, ProbeOptions, ScanVar, SegmentProbe,
};
