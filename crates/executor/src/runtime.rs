//! The physical runtime model: what a plan *actually* costs.
//!
//! Structurally parallel to the optimizer's cost model, but it reads the
//! **actual** system parameters, the **actual** cluster ratios (quirk
//! overrides applied) and **actual** cardinalities. The runtime effects the
//! optimizer's model misses are modelled explicitly:
//!
//! * **buffer-pool flooding** on poorly-clustered index fetches (paper
//!   Figure 4: pages loaded, evicted and re-loaded, adding massive random
//!   I/O);
//! * **merge-join early termination** (Figure 8: "as soon as no more
//!   matches are found in the inner table, the join operation can be
//!   safely interrupted");
//! * **bloom-filter skipping** in hash joins (Figure 4's rewrite);
//! * **sort and hash spills** past the real sort heap.
//!
//! Besides elapsed time, the simulator reports the auxiliary metrics the
//! paper's ranking process uses as tie-breakers (§3.2): "buffer pool data
//! logical reads and physical reads, total CPU time usage, and shared
//! sort-heap high-water mark".

use galo_catalog::{Database, SystemParams};
use galo_qgm::{PopId, PopKind, Qgm};
use galo_sql::{CardEstimator, Query};

/// Auxiliary runtime metrics (the db2batch tie-breaker set).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    pub bp_logical_reads: f64,
    pub bp_physical_reads: f64,
    pub cpu_ms: f64,
    pub sort_heap_hwm_pages: f64,
}

impl Metrics {
    fn add(&mut self, other: &Metrics) {
        self.bp_logical_reads += other.bp_logical_reads;
        self.bp_physical_reads += other.bp_physical_reads;
        self.cpu_ms += other.cpu_ms;
        self.sort_heap_hwm_pages = self.sort_heap_hwm_pages.max(other.sort_heap_hwm_pages);
    }
}

/// One simulated execution.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    pub elapsed_ms: f64,
    pub metrics: Metrics,
}

/// Cost of accessing a buffer-pool-resident page (CPU-side).
const BP_ACCESS_MS: f64 = 0.0005;

struct NodeRun {
    rows: f64,
    elapsed: f64,
    metrics: Metrics,
    /// Pages of base data under this subtree (buffer-pool reasoning).
    pages: f64,
}

/// A plan with what its runs read: the truth estimate of its query and
/// every operator's table set ([`Qgm::table_sets`]).
pub(crate) struct Prepared<'q> {
    qgm: &'q Qgm,
    est: CardEstimator,
    sets: Vec<u64>,
}

impl Prepared<'_> {
    fn table_set(&self, id: PopId) -> u64 {
        self.sets[id.0 as usize]
    }
}

/// The runtime simulator for one database.
pub struct Simulator<'a> {
    db: &'a Database,
    params: &'a SystemParams,
}

impl<'a> Simulator<'a> {
    pub fn new(db: &'a Database) -> Self {
        Simulator {
            db,
            params: &db.config.actual,
        }
    }

    /// Simulate one execution of a plan. `warm` models a buffer pool
    /// already populated by a previous run of the same plan.
    pub fn run(&self, qgm: &Qgm, warm: bool) -> RunStats {
        self.run_prepared(&self.prepare(qgm), warm)
    }

    /// What every run of `qgm` reads besides the plan: a run is a pure
    /// function of the plan and `warm`, so a batch prepares this once.
    pub(crate) fn prepare<'q>(&self, qgm: &'q Qgm) -> Prepared<'q> {
        Prepared {
            qgm,
            est: CardEstimator::truth(self.db, &qgm.query),
            sets: qgm.table_sets(),
        }
    }

    /// [`Simulator::run`] of a prepared plan.
    pub(crate) fn run_prepared(&self, plan: &Prepared, warm: bool) -> RunStats {
        let out = self.eval(plan, plan.qgm.root(), warm, 1.0);
        RunStats {
            elapsed_ms: out.elapsed,
            metrics: out.metrics,
        }
    }

    /// Truth selectivity of local predicates on one column of an instance.
    fn truth_key_sel(&self, query: &Query, t: usize, col: galo_catalog::ColumnId) -> f64 {
        let table = query.tables[t].table;
        query
            .locals_of(t)
            .filter(|p| p.col.column == col)
            .map(|p| galo_sql::local_selectivity(&self.db.truth, table, p, col))
            .product()
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&self, plan: &Prepared, id: PopId, warm: bool, fraction: f64) -> NodeRun {
        let (qgm, est) = (plan.qgm, &plan.est);
        let pop = qgm.pop(id);
        let query = &qgm.query;
        let bp = self.params.buffer_pool_pages as f64;
        match &pop.kind {
            PopKind::Return => {
                let mut child = self.eval(plan, pop.inputs[0], warm, fraction);
                let cpu = child.rows * self.params.cpu_row_ms * 0.1;
                child.elapsed += cpu;
                child.metrics.cpu_ms += cpu;
                child
            }
            PopKind::Filter => {
                let mut child = self.eval(plan, pop.inputs[0], warm, fraction);
                let cpu = child.rows * self.params.cpu_pred_ms;
                child.elapsed += cpu;
                child.metrics.cpu_ms += cpu;
                // Filter output follows the operator's table set actuals.
                child.rows = est.join_card(plan.table_set(id)).min(child.rows);
                child
            }
            PopKind::Sort { .. } => {
                // A sort consumes its input fully regardless of how much
                // the parent reads.
                let child = self.eval(plan, pop.inputs[0], warm, 1.0);
                let rows = child.rows;
                let width = 24.0;
                let bytes = rows * width;
                let heap_bytes = self.params.sort_heap_pages as f64 * self.params.page_size as f64;
                let cpu = rows * rows.max(2.0).log2() * self.params.cpu_row_ms * 0.25;
                let mut io = 0.0;
                let mut phys = 0.0;
                let pages = bytes / self.params.page_size as f64;
                if bytes > heap_bytes {
                    io = 2.0 * pages * self.params.seq_page_ms;
                    phys = pages;
                }
                let mut metrics = child.metrics;
                metrics.cpu_ms += cpu;
                // Spilled sort runs pass through the (temp) buffer pool:
                // they count as both logical and physical page reads.
                metrics.bp_logical_reads += phys;
                metrics.bp_physical_reads += phys;
                metrics.sort_heap_hwm_pages = metrics
                    .sort_heap_hwm_pages
                    .max(pages.min(self.params.sort_heap_pages as f64));
                NodeRun {
                    rows,
                    elapsed: child.elapsed + cpu + io,
                    metrics,
                    pages: child.pages,
                }
            }
            PopKind::TbScan { table } => {
                let table_id = query.tables[*table].table;
                let stats = self.db.truth.table(table_id);
                let pages = stats.pages as f64 * fraction;
                let rows_scanned = stats.row_count as f64 * fraction;
                let out_rows = est.filtered_card(*table) * fraction;
                let n_preds = query.locals_of(*table).count() as f64;
                let cached = warm && (stats.pages as f64) <= bp;
                let physical = if cached { 0.0 } else { pages };
                let io = physical * self.params.seq_page_ms_for(table_id)
                    + (pages - physical) * BP_ACCESS_MS;
                let cpu =
                    rows_scanned * (self.params.cpu_row_ms + n_preds * self.params.cpu_pred_ms);
                NodeRun {
                    rows: out_rows,
                    elapsed: io + cpu,
                    metrics: Metrics {
                        bp_logical_reads: pages,
                        bp_physical_reads: physical,
                        cpu_ms: cpu,
                        sort_heap_hwm_pages: 0.0,
                    },
                    pages: stats.pages as f64,
                }
            }
            PopKind::IxScan {
                table,
                index,
                fetch,
            } => {
                let table_id = query.tables[*table].table;
                let stats = self.db.truth.table(table_id);
                let key_col = self.db.table(table_id).index(*index).column;
                let key_sel = self.truth_key_sel(query, *table, key_col);
                let selected = (stats.row_count as f64 * key_sel * fraction).max(1.0);
                let out_rows = est.filtered_card(*table) * fraction;
                let leaf_pages = (selected / crate::INDEX_ENTRIES_PER_PAGE).ceil();

                let mut logical = 2.0 + leaf_pages;
                let mut physical = if warm { 0.0 } else { leaf_pages.min(bp) };
                let mut io = physical * self.params.seq_page_ms
                    + (logical - physical).max(0.0) * BP_ACCESS_MS;
                let mut cpu = selected * self.params.cpu_row_ms;

                if *fetch {
                    let cr = self
                        .db
                        .actual_cluster_ratio(table_id, *index)
                        .clamp(0.0, 1.0);
                    let pages = stats.pages as f64;
                    let sel = (selected / stats.row_count.max(1) as f64).min(1.0);
                    // Dense-fetch model (see the optimizer's `fetch_cost`):
                    // clustered mass reads sequentially; far out-of-order
                    // jumpers — quadratic in (1 - cr) — pay random I/O;
                    // scatter-dominated fetches flood past the buffer pool.
                    let seq_pages = (cr * sel * pages).ceil();
                    let scattered_rows = (1.0 - cr) * selected;
                    let mut far_rows = (1.0 - cr) * scattered_rows;
                    if cr < 0.5 && scattered_rows.min(pages) > bp {
                        far_rows = scattered_rows;
                    }
                    logical += seq_pages + scattered_rows;
                    let phys_fetch = if warm && seq_pages + far_rows <= bp {
                        0.0
                    } else {
                        seq_pages + far_rows
                    };
                    physical += phys_fetch;
                    io += phys_fetch.min(seq_pages) * self.params.seq_page_ms
                        + (phys_fetch - seq_pages).max(0.0) * self.params.random_page_ms
                        + (seq_pages + scattered_rows - phys_fetch).max(0.0) * BP_ACCESS_MS;
                    let residual = query
                        .locals_of(*table)
                        .filter(|p| p.col.column != key_col)
                        .count() as f64;
                    cpu += selected * residual * self.params.cpu_pred_ms;
                }
                NodeRun {
                    rows: out_rows,
                    elapsed: io + cpu,
                    metrics: Metrics {
                        bp_logical_reads: logical,
                        bp_physical_reads: physical,
                        cpu_ms: cpu,
                        sort_heap_hwm_pages: 0.0,
                    },
                    pages: stats.pages as f64,
                }
            }
            PopKind::NlJoin => self.eval_nljoin(plan, id, warm, fraction),
            PopKind::HsJoin { bloom } => {
                let outer = self.eval(plan, pop.inputs[0], warm, fraction);
                let inner = self.eval(plan, pop.inputs[1], warm, 1.0);
                let join_rows = est.join_card(plan.table_set(id)) * fraction;
                let match_frac = (join_rows / outer.rows.max(1.0)).min(1.0);

                let build_cpu = inner.rows * self.params.cpu_hash_ms;
                let width = 24.0;
                let inner_bytes = inner.rows * width;
                let heap_bytes = self.params.sort_heap_pages as f64 * self.params.page_size as f64;
                let mut spill_io = 0.0;
                let mut phys = 0.0;
                let mut hwm = (inner_bytes / self.params.page_size as f64)
                    .min(self.params.sort_heap_pages as f64);
                if inner_bytes > heap_bytes {
                    let excess_pages = (inner_bytes - heap_bytes) / self.params.page_size as f64;
                    let outer_eff = if *bloom {
                        outer.rows * match_frac
                    } else {
                        outer.rows
                    };
                    let outer_pages = outer_eff * 16.0 / self.params.page_size as f64;
                    spill_io = 2.0 * (excess_pages + outer_pages) * self.params.seq_page_ms;
                    phys = excess_pages + outer_pages;
                    hwm = self.params.sort_heap_pages as f64;
                }
                let probe_rows = if *bloom {
                    outer.rows * (0.1 + 0.9 * match_frac)
                } else {
                    outer.rows
                };
                let probe_cpu = probe_rows * self.params.cpu_hash_ms;

                let mut metrics = outer.metrics;
                metrics.add(&inner.metrics);
                metrics.cpu_ms += build_cpu + probe_cpu;
                // Spilled hash partitions pass through the buffer pool.
                metrics.bp_logical_reads += phys;
                metrics.bp_physical_reads += phys;
                metrics.sort_heap_hwm_pages = metrics.sort_heap_hwm_pages.max(hwm);
                NodeRun {
                    rows: join_rows,
                    elapsed: outer.elapsed + inner.elapsed + build_cpu + probe_cpu + spill_io,
                    metrics,
                    pages: outer.pages + inner.pages,
                }
            }
            PopKind::MsJoin => {
                let outer_set = plan.table_set(pop.inputs[0]);
                let inner_set = plan.table_set(pop.inputs[1]);
                // Early termination: a correlated, filtered dim on one side
                // means the sorted fact side runs out of matches early.
                let scan_frac = self.merge_scan_fraction(query, outer_set, inner_set);
                let outer_kind = &qgm.pop(pop.inputs[0]).kind;
                let pipelined = outer_kind.is_scan() || matches!(outer_kind, PopKind::Filter);
                let outer_fraction = if pipelined { fraction * scan_frac } else { 1.0 };
                let outer = self.eval(plan, pop.inputs[0], warm, outer_fraction);
                let inner = self.eval(plan, pop.inputs[1], warm, 1.0);

                let join_rows = est.join_card(outer_set | inner_set) * fraction;
                let merged = outer
                    .rows
                    .min(outer.rows * scan_frac / outer_fraction.max(1e-9))
                    + inner.rows;
                let cpu = merged * self.params.cpu_row_ms;
                let mut metrics = outer.metrics;
                metrics.add(&inner.metrics);
                metrics.cpu_ms += cpu;
                NodeRun {
                    rows: join_rows,
                    elapsed: outer.elapsed + inner.elapsed + cpu,
                    metrics,
                    pages: outer.pages + inner.pages,
                }
            }
        }
    }

    fn eval_nljoin(&self, plan: &Prepared, id: PopId, warm: bool, fraction: f64) -> NodeRun {
        let (qgm, est) = (plan.qgm, &plan.est);
        let pop = qgm.pop(id);
        let query = &qgm.query;
        let bp = self.params.buffer_pool_pages as f64;
        let outer = self.eval(plan, pop.inputs[0], warm, fraction);
        let join_rows = est.join_card(plan.table_set(id)) * fraction;
        let probes = outer.rows.max(1.0);
        let per_probe = join_rows / probes;

        let inner_pop = qgm.pop(pop.inputs[1]);
        if let PopKind::IxScan {
            table,
            index,
            fetch,
        } = &inner_pop.kind
        {
            let table_id = query.tables[*table].table;
            let stats = self.db.truth.table(table_id);
            let pages = stats.pages as f64;
            // Index traversal per probe (index pages are hot).
            let trav_logical = crate::INDEX_TRAVERSAL_PAGES * probes;
            let mut logical = trav_logical;
            let mut physical = 0.0;
            let mut io = trav_logical * BP_ACCESS_MS;
            let mut cpu = join_rows * self.params.cpu_row_ms + probes * self.params.cpu_row_ms;

            if *fetch {
                let cr = self.db.actual_cluster_ratio(table_id, *index);
                let rows_per_page =
                    (self.params.page_size as f64 / stats.row_size.max(1) as f64).max(1.0);
                let seq_pages = cr * (join_rows / rows_per_page).ceil();
                let random_touches = (1.0 - cr) * join_rows;
                let touches = seq_pages + random_touches;
                let distinct = touches.min(pages);
                // Flooding (paper Figure 4): when the probed working set
                // exceeds the buffer pool, previously-loaded pages have
                // been evicted by the time they are probed again.
                let phys = if distinct > bp {
                    touches
                } else if warm {
                    0.0
                } else {
                    distinct
                };
                logical += touches;
                physical += phys;
                io += phys.min(seq_pages) * self.params.seq_page_ms_for(table_id)
                    + (phys - seq_pages).max(0.0) * self.params.random_page_ms
                    + (touches - phys).max(0.0) * BP_ACCESS_MS;
                cpu += join_rows * query.locals_of(*table).count() as f64 * self.params.cpu_pred_ms;
            }
            let mut metrics = outer.metrics;
            metrics.add(&Metrics {
                bp_logical_reads: logical,
                bp_physical_reads: physical,
                cpu_ms: cpu,
                sort_heap_hwm_pages: 0.0,
            });
            let _ = per_probe;
            return NodeRun {
                rows: join_rows,
                elapsed: outer.elapsed + io + cpu,
                metrics,
                pages: outer.pages + pages,
            };
        }

        // Generic inner: evaluated once cold, re-executed per probe at the
        // buffer-pool discounted rate.
        let inner = self.eval(plan, pop.inputs[1], warm, 1.0);
        let hit = (bp / inner.pages.max(1.0)).min(1.0);
        let repeat = inner.elapsed * (1.0 - 0.95 * hit);
        let cpu = probes * self.params.cpu_row_ms + join_rows * self.params.cpu_row_ms;
        let elapsed = outer.elapsed + inner.elapsed + (probes - 1.0).max(0.0) * repeat + cpu;
        let mut metrics = outer.metrics;
        metrics.add(&inner.metrics);
        metrics.cpu_ms += cpu;
        metrics.bp_logical_reads += (probes - 1.0).max(0.0) * inner.metrics.bp_logical_reads;
        NodeRun {
            rows: join_rows,
            elapsed,
            metrics,
            pages: outer.pages + inner.pages,
        }
    }

    /// Early-termination fraction for a merge join between two sides: the
    /// minimum merge-scan fraction over applicable correlation quirks.
    fn merge_scan_fraction(&self, query: &Query, left: u64, right: u64) -> f64 {
        let mut frac = 1.0f64;
        for quirk in &self.db.quirks.correlations {
            if quirk.merge_scan_fraction >= 1.0 {
                continue;
            }
            for (fact_side, dim_side) in [(left, right), (right, left)] {
                let fact_here = (0..query.tables.len())
                    .any(|t| fact_side & (1 << t) != 0 && query.tables[t].table == quirk.fact.0);
                let dim_filtered = (0..query.tables.len()).any(|t| {
                    dim_side & (1 << t) != 0
                        && query.tables[t].table == quirk.dim.0
                        && query.locals_of(t).any(|p| p.col.column == quirk.dim.1)
                });
                if fact_here && dim_filtered {
                    frac = frac.min(quirk.merge_scan_fraction);
                }
            }
        }
        frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{
        col, ColumnId, ColumnStats, ColumnType, DatabaseBuilder, Index, IndexId, SystemConfig,
        Table,
    };
    use galo_optimizer::Optimizer;
    use galo_qgm::GuidelineDoc;
    use galo_qgm::GuidelineNode;
    use galo_sql::parse;

    fn fig4_db(stale_cluster: bool) -> Database {
        let mut b = DatabaseBuilder::new("fig4", SystemConfig::default_1gb());
        let mut fact = Table::new(
            "CATALOG_SALES",
            vec![
                col("CS_SHIP_ADDR_SK", ColumnType::Integer),
                col("CS_SOLD_DATE_SK", ColumnType::Integer),
                col("CS_PAYLOAD", ColumnType::Varchar(180)),
            ],
        );
        fact.add_index(Index {
            name: "CS_ADDR_IX".into(),
            column: ColumnId(0),
            unique: false,
            cluster_ratio: 0.92,
        });
        let f = b.add_table(
            fact,
            1_441_000,
            vec![
                ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
                ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
                ColumnStats::uniform(500_000, 0.0, 1e6, 90),
            ],
        );
        b.add_table(
            Table::new(
                "CUSTOMER_ADDRESS",
                vec![
                    col("CA_ADDRESS_SK", ColumnType::Integer),
                    col("CA_STATE", ColumnType::Varchar(4)),
                ],
            ),
            50_000,
            vec![
                ColumnStats::uniform(50_000, 0.0, 50_000.0, 4),
                ColumnStats::uniform(50, 0.0, 1e6, 2),
            ],
        );
        if stale_cluster {
            b.plant_stale_cluster_ratio(f, IndexId(0), 0.03);
        }
        b.build()
    }

    fn fig4_query(db: &Database) -> galo_sql::Query {
        parse(
            db,
            "fig4",
            "SELECT cs_payload FROM customer_address, catalog_sales \
             WHERE ca_address_sk = cs_ship_addr_sk AND ca_state = 'TX'",
        )
        .unwrap()
    }

    #[test]
    fn flooding_punishes_unclustered_nljoin_fetch() {
        // Same plan, same catalog view — but the actual cluster ratio is
        // stale in one database. Runtime must diverge badly.
        let doc = GuidelineDoc::new(vec![GuidelineNode::NlJoin(
            Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
            Box::new(GuidelineNode::IxScan {
                tabid: "Q2".into(),
                index: Some("CS_ADDR_IX".into()),
            }),
        )]);

        let clean = fig4_db(false);
        let q = fig4_query(&clean);
        let plan_clean = Optimizer::new(&clean)
            .optimize_with_guidelines(&q, &doc)
            .unwrap();
        assert_eq!(plan_clean.outcome.honored, vec![true]);
        let t_clean = Simulator::new(&clean).run(&plan_clean.qgm, false);

        let quirky = fig4_db(true);
        let q2 = fig4_query(&quirky);
        let plan_quirky = Optimizer::new(&quirky)
            .optimize_with_guidelines(&q2, &doc)
            .unwrap();
        let t_quirky = Simulator::new(&quirky).run(&plan_quirky.qgm, false);

        assert!(
            t_quirky.elapsed_ms > t_clean.elapsed_ms * 3.0,
            "flooding should blow up runtime: clean {} vs stale {}",
            t_clean.elapsed_ms,
            t_quirky.elapsed_ms
        );
        assert!(t_quirky.metrics.bp_physical_reads > t_clean.metrics.bp_physical_reads * 2.0);
    }

    #[test]
    fn hash_join_avoids_flooding_on_quirky_db() {
        let quirky = fig4_db(true);
        let q = fig4_query(&quirky);
        let nl_doc = GuidelineDoc::new(vec![GuidelineNode::NlJoin(
            Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
            Box::new(GuidelineNode::IxScan {
                tabid: "Q2".into(),
                index: Some("CS_ADDR_IX".into()),
            }),
        )]);
        let hs_doc = GuidelineDoc::new(vec![GuidelineNode::HsJoin(
            Box::new(GuidelineNode::TbScan { tabid: "Q2".into() }),
            Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
        )]);
        let opt = Optimizer::new(&quirky);
        let sim = Simulator::new(&quirky);
        let nl = opt.optimize_with_guidelines(&q, &nl_doc).unwrap();
        let hs = opt.optimize_with_guidelines(&q, &hs_doc).unwrap();
        let t_nl = sim.run(&nl.qgm, false);
        let t_hs = sim.run(&hs.qgm, false);
        assert!(
            t_hs.elapsed_ms < t_nl.elapsed_ms,
            "hash join {} should beat flooding nljoin {}",
            t_hs.elapsed_ms,
            t_nl.elapsed_ms
        );
    }

    #[test]
    fn warm_runs_are_faster_for_cacheable_plans() {
        let db = fig4_db(false);
        let q = parse(&db, "scan", "SELECT ca_state FROM customer_address").unwrap();
        let plan = Optimizer::new(&db).optimize(&q).unwrap();
        let sim = Simulator::new(&db);
        let cold = sim.run(&plan, false);
        let hot = sim.run(&plan, true);
        assert!(hot.elapsed_ms < cold.elapsed_ms);
        assert_eq!(hot.metrics.bp_physical_reads, 0.0);
        assert!(cold.metrics.bp_physical_reads > 0.0);
    }

    #[test]
    fn metrics_accumulate_across_operators() {
        let db = fig4_db(false);
        let q = fig4_query(&db);
        let plan = Optimizer::new(&db).optimize(&q).unwrap();
        let stats = Simulator::new(&db).run(&plan, false);
        assert!(stats.metrics.bp_logical_reads > 0.0);
        assert!(stats.metrics.cpu_ms > 0.0);
        assert!(stats.elapsed_ms >= stats.metrics.cpu_ms);
    }
}
