//! The learner cluster: multi-machine workload learning (paper §4).
//!
//! GALO's knowledge base is built *off-peak* by parallel learner
//! machines — "the analysis of the workload is performed in parallel on
//! multiple machines" — each mining a partition of the workload and
//! appending its problem-pattern templates into the shared store. This
//! module simulates that cluster faithfully enough to test it:
//!
//! * a [`LearnerNode`] is one machine. It runs the **full**
//!   mine → template → guideline pipeline locally: enumerate the
//!   workload's unique sub-query mining space (deterministic, so every
//!   node computes the same space without coordination — SPMD style),
//!   then walk its [`Partitioner`] slice of that space with the mining
//!   loop [`learn_workload`](crate::learning::learn_workload)'s threads
//!   run, which benchmarks random alternative plans against the optimizer
//!   per sub-query and abstracts the winning rewrites into [`Template`]s.
//!   The cluster has `learning.threads` nodes — the same partition-count
//!   knob that sets `learn_workload`'s threads;
//! * mined templates are **published in batches** through
//!   [`KnowledgeBase::insert_batch`] → the knowledge base's one commit →
//!   `FusekiLite::apply_block_owned`: one block, one endpoint transaction
//!   per batch. On a sharded backend routing is *placement*, not
//!   locking — each template lands whole on one shard
//!   (and in one shard's log), while the batch itself holds an all-shard
//!   write session like every other write;
//! * the knowledge-base image is **independent of publish interleaving**:
//!   a template is a pure function of its mining-space index (analysis
//!   RNG seeded from `(seed, index)`), slices are disjoint, and
//!   publication is set-semantics idempotent — so N nodes racing into the
//!   store produce byte-for-byte the KB that sequential
//!   [`learn_workload`](crate::learning::learn_workload) produces. The
//!   differential tests in `tests/learner_cluster.rs` pin exactly this.
//!
//! Each learned template is tagged into its workload's named graph, which
//! the knowledge base exposes as a first-class dataset
//! ([`KnowledgeBase::workload_datasets`],
//! [`KnowledgeBase::dataset_template_iris`]). Matching spans every
//! dataset: a match names its template's workload
//! ([`MatchedRewrite::source_workload`](crate::matching::MatchedRewrite::source_workload)),
//! which is how cross-workload reuse is counted.

use galo_workloads::{Partitioner, Workload};

use crate::kb::{KnowledgeBase, Template};
use crate::learning::{enumerate_mining_space, LearningConfig};

/// Learner-cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Templates per publish batch: a node pushes its mined templates to
    /// the shared knowledge base every `publish_batch` templates (and
    /// flushes the remainder when its slice is exhausted). Smaller
    /// batches publish earlier — matchers see templates sooner — at the
    /// cost of more endpoint transactions.
    pub publish_batch: usize,
    /// The per-node learning configuration. `threads` is the number of
    /// simulated learner machines (≥ 1); each node analyzes its slice
    /// sequentially, so a node's work is exactly reproducible.
    pub learning: LearningConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            publish_batch: 8,
            learning: LearningConfig {
                threads: 2,
                ..LearningConfig::default()
            },
        }
    }
}

/// One simulated learner machine of the cluster.
#[derive(Debug, Clone, Copy)]
pub struct LearnerNode {
    /// This machine's index in `0..partitioner.nodes()`.
    pub id: usize,
    partitioner: Partitioner,
}

/// What one node mined from its slice, before or after publishing.
#[derive(Debug)]
pub struct MinedSlice {
    /// Templates mined from the node's slice, in mining-space order.
    pub templates: Vec<Template>,
    /// Sub-queries enumerated workload-wide before merging (identical on
    /// every node; reported for the learning accounting).
    pub subqueries_total: usize,
    /// Unique sub-queries in the workload's mining space (identical on
    /// every node).
    pub subqueries_unique: usize,
    /// Unique sub-queries assigned to and analyzed by this node.
    pub subqueries_assigned: usize,
    /// Simulated machine time spent benchmarking plans, milliseconds.
    pub simulated_machine_ms: f64,
}

/// Per-node outcome of one cluster learning run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    pub node: usize,
    /// Unique sub-queries the node analyzed.
    pub subqueries_assigned: usize,
    /// Templates the node mined and published.
    pub templates_published: usize,
    /// Quads (triples + dataset tags) the node's publishes actually added
    /// to the store — re-published duplicates add nothing.
    pub quads_added: usize,
    /// Simulated machine time spent benchmarking plans, milliseconds.
    pub simulated_machine_ms: f64,
}

/// Outcome of one cluster learning run.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Sub-queries enumerated before structural merging.
    pub subqueries_total: usize,
    /// Unique sub-query structures in the mining space.
    pub subqueries_unique: usize,
    pub nodes: Vec<NodeReport>,
}

impl ClusterReport {
    /// Templates published across all nodes.
    pub fn templates_published(&self) -> usize {
        self.nodes.iter().map(|n| n.templates_published).sum()
    }

    /// Simulated machine time summed over the nodes, milliseconds — the
    /// cluster's total compute bill.
    pub fn simulated_machine_ms(&self) -> f64 {
        self.nodes.iter().map(|n| n.simulated_machine_ms).sum()
    }

    /// Simulated wall time of the cluster: the slowest node's machine
    /// time (all nodes run concurrently). The paper's Figure 13 argument:
    /// adding machines divides the off-peak learning window.
    pub fn simulated_critical_path_ms(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.simulated_machine_ms)
            .fold(0.0, f64::max)
    }
}

impl LearnerNode {
    /// Node `id` of a cluster of `nodes` machines.
    pub fn new(id: usize, nodes: usize) -> Self {
        let partitioner = Partitioner::new(nodes);
        assert!(id < partitioner.nodes(), "node id out of range");
        LearnerNode { id, partitioner }
    }

    /// Mine this node's slice of the workload: enumerate the full mining
    /// space locally (deterministic, so no coordination is needed) and
    /// walk the sub-queries the partitioner assigns to this node with the
    /// sequential engine's own loop — same seeds, same templates, same
    /// anonymized ids.
    pub fn mine(&self, workload: &Workload, cfg: &LearningConfig) -> MinedSlice {
        self.mine_with(workload, cfg, |_| {})
    }

    /// [`mine`](Self::mine), handing `mined` the slice's templates so far
    /// each time the walk mints one.
    fn mine_with(
        &self,
        workload: &Workload,
        cfg: &LearningConfig,
        mut mined: impl FnMut(&[Template]),
    ) -> MinedSlice {
        let space = enumerate_mining_space(workload, cfg);
        let mut slice = MinedSlice {
            templates: Vec::new(),
            subqueries_total: space.subqueries_total,
            subqueries_unique: space.unique.len(),
            subqueries_assigned: 0,
            simulated_machine_ms: 0.0,
        };
        for analysis in space.walk(&workload.db, cfg, self.partitioner, self.id) {
            slice.subqueries_assigned += 1;
            slice.simulated_machine_ms += analysis.sim_ms;
            if let Some(cand) = analysis.candidate {
                slice.templates.push(cand.template);
                mined(&slice.templates);
            }
        }
        slice
    }

    /// Publish mined templates into the shared knowledge base in batches
    /// of `publish_batch`. Returns `(batches pushed, quads added)`.
    pub fn publish(
        &self,
        kb: &KnowledgeBase,
        templates: &[Template],
        publish_batch: usize,
    ) -> (usize, usize) {
        let size = publish_batch.max(1);
        let mut batches = 0usize;
        let mut added = 0usize;
        for chunk in templates.chunks(size) {
            added += kb.insert_batch(chunk);
            batches += 1;
        }
        (batches, added)
    }

    /// Mine and publish in one pass: each batch goes out as soon as it
    /// fills, so other machines' matchers see this node's templates while
    /// it is still analyzing (the interleaving the stress tests exercise).
    /// Returns the mined slice and the quads its publishes added.
    fn mine_and_publish(
        &self,
        workload: &Workload,
        kb: &KnowledgeBase,
        cfg: &ClusterConfig,
    ) -> (MinedSlice, usize) {
        let size = cfg.publish_batch.max(1);
        let mut published = 0usize;
        let mut quads_added = 0usize;
        let slice = self.mine_with(workload, &cfg.learning, |mined| {
            if mined.len() - published == size {
                quads_added += self.publish(kb, &mined[published..], size).1;
                published = mined.len();
            }
        });
        quads_added += self.publish(kb, &slice.templates[published..], size).1;
        (slice, quads_added)
    }
}

/// Learn a workload with a simulated cluster of `cfg.learning.threads`
/// learner machines, each running on its own thread: every node mines
/// its [`Partitioner`] slice of the workload's unique sub-query space and
/// publishes batched templates into the shared knowledge base
/// concurrently.
///
/// The resulting KB image — triples, dataset tags, signature index — is
/// set-equal to a sequential
/// [`learn_workload`](crate::learning::learn_workload) over the same
/// workload and learning configuration, for any node count and any
/// publish interleaving.
pub fn learn_workload_cluster(
    workload: &Workload,
    kb: &KnowledgeBase,
    cfg: &ClusterConfig,
) -> ClusterReport {
    let nodes = Partitioner::new(cfg.learning.threads).nodes();
    let runs: Vec<(MinedSlice, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nodes)
            .map(|id| {
                let node = LearnerNode::new(id, nodes);
                scope.spawn(move || node.mine_and_publish(workload, kb, cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("learner node must not panic"))
            .collect()
    });
    // Enumeration totals are identical on every node; take them once.
    ClusterReport {
        subqueries_total: runs[0].0.subqueries_total,
        subqueries_unique: runs[0].0.subqueries_unique,
        nodes: runs
            .into_iter()
            .enumerate()
            .map(|(node, (slice, quads_added))| NodeReport {
                node,
                subqueries_assigned: slice.subqueries_assigned,
                templates_published: slice.templates.len(),
                quads_added,
                simulated_machine_ms: slice.simulated_machine_ms,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{
        col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig,
        Table, Value,
    };
    use galo_workloads::Workload;

    /// The planted-flooding workload the learning tests use, with a
    /// second query so the mining space has more than one entry.
    fn quirky_workload() -> Workload {
        let mut b = DatabaseBuilder::new("cluster_test", SystemConfig::default_1gb());
        let mut fact = Table::new(
            "FACT",
            vec![
                col("F_ADDR", ColumnType::Integer),
                col("F_PAYLOAD", ColumnType::Varchar(180)),
            ],
        );
        fact.add_index(Index {
            name: "F_ADDR_IX".into(),
            column: ColumnId(0),
            unique: false,
            cluster_ratio: 0.93,
        });
        let f = b.add_table(
            fact,
            1_441_000,
            vec![
                ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
                ColumnStats::uniform(500_000, 0.0, 1e6, 90),
            ],
        );
        let addr = b.add_table(
            Table::new(
                "ADDR",
                vec![
                    col("A_SK", ColumnType::Integer),
                    col("A_STATE", ColumnType::Varchar(4)),
                ],
            ),
            50_000,
            vec![
                ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
                ColumnStats::uniform(50, 0.0, 1e6, 2).with_frequent(vec![
                    (Value::Str("CA".into()), 9_000),
                    (Value::Str("TX".into()), 6_000),
                    (Value::Str("VT".into()), 200),
                ]),
            ],
        );
        *b.belief_mut().column_mut(addr, ColumnId(1)) = ColumnStats::uniform(5_000, 0.0, 1e6, 2);
        b.plant_stale_cluster_ratio(f, IndexId(0), 0.03);
        let db = b.build();
        let q1 = galo_sql::parse(
            &db,
            "q1",
            "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'TX'",
        )
        .unwrap();
        let q2 = galo_sql::parse(
            &db,
            "q2",
            "SELECT f_payload FROM addr, fact WHERE a_sk = f_addr AND a_state = 'CA' \
             AND f_addr = 7",
        )
        .unwrap();
        Workload {
            name: "cluster_test".into(),
            db,
            queries: vec![q1, q2],
        }
    }

    fn cluster_cfg(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            publish_batch: 2,
            learning: LearningConfig {
                threads: nodes,
                random_plans: 12,
                ..LearningConfig::default()
            },
        }
    }

    /// Sorted N-Quads lines: the KB's full image (triples + datasets) as
    /// a comparable set.
    fn image(kb: &KnowledgeBase) -> Vec<String> {
        let mut lines: Vec<String> = kb.export().lines().map(str::to_string).collect();
        lines.sort();
        lines
    }

    #[test]
    fn cluster_image_equals_sequential_for_every_node_count() {
        let w = quirky_workload();
        let cfg = cluster_cfg(1);
        let oracle = KnowledgeBase::new();
        let seq = crate::learning::learn_workload(&w, &oracle, &cfg.learning);
        assert!(seq.templates_learned >= 1, "{seq:?}");
        for nodes in 1..=4 {
            let kb = KnowledgeBase::new();
            let report = learn_workload_cluster(&w, &kb, &cluster_cfg(nodes));
            assert_eq!(report.nodes.len(), nodes);
            assert_eq!(report.templates_published(), seq.templates_learned);
            assert_eq!(image(&kb), image(&oracle), "nodes={nodes}");
            assert_eq!(kb.signature_count(), oracle.signature_count());
            assert_eq!(kb.workload_datasets(), oracle.workload_datasets());
        }
    }

    #[test]
    fn nodes_cover_the_mining_space_disjointly() {
        let w = quirky_workload();
        let cfg = cluster_cfg(3);
        let slices: Vec<MinedSlice> = (0..3)
            .map(|id| LearnerNode::new(id, 3).mine(&w, &cfg.learning))
            .collect();
        let unique = slices[0].subqueries_unique;
        assert!(unique >= 2, "two queries must yield several sub-queries");
        assert!(slices.iter().all(|s| s.subqueries_unique == unique));
        assert_eq!(
            slices.iter().map(|s| s.subqueries_assigned).sum::<usize>(),
            unique
        );
        // Mined template ids are globally unique across nodes (disjoint
        // slices, content-deterministic analysis).
        let mut ids: Vec<&str> = slices
            .iter()
            .flat_map(|s| s.templates.iter().map(|t| t.id.as_str()))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn republishing_is_idempotent() {
        let w = quirky_workload();
        let cfg = cluster_cfg(2);
        let kb = KnowledgeBase::new();
        let node = LearnerNode::new(0, 2);
        let mined = node.mine(&w, &cfg.learning);
        assert!(!mined.templates.is_empty());
        let (_, added_first) = node.publish(&kb, &mined.templates, 2);
        assert!(added_first > 0);
        let before = image(&kb);
        // A crashed-and-retried publish must not duplicate anything.
        let (_, added_again) = node.publish(&kb, &mined.templates, 3);
        assert_eq!(added_again, 0);
        assert_eq!(image(&kb), before);
        assert_eq!(kb.template_count(), mined.templates.len());
    }

    #[test]
    fn report_accounts_machine_time_and_critical_path() {
        let w = quirky_workload();
        let kb = KnowledgeBase::new();
        let report = learn_workload_cluster(&w, &kb, &cluster_cfg(2));
        assert!(report.subqueries_unique >= 2);
        assert!(report.simulated_machine_ms() > 0.0);
        assert!(report.simulated_critical_path_ms() <= report.simulated_machine_ms());
        assert!(report.simulated_critical_path_ms() > 0.0);
        let published: usize = report.nodes.iter().map(|n| n.templates_published).sum();
        assert_eq!(published, report.templates_published());
        assert_eq!(kb.template_count(), published);
        assert!(report
            .nodes
            .iter()
            .all(|n| n.quads_added > 0 || n.templates_published == 0));
    }
}
