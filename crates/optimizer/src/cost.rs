//! The cost-based optimizer's cost model (timerons ≈ milliseconds).
//!
//! These formulas are what the optimizer *believes* execution will cost —
//! they consult [`galo_catalog::SystemParams`] from the belief view and the
//! catalog's (possibly stale) cluster ratios. The executor implements its
//! own, structurally similar, charging model against the actual
//! configuration; divergence between the two is what produces the paper's
//! problem patterns (e.g. Figure 7's transfer-rate overestimate).

use galo_catalog::{ColumnId, Database, IndexId, SystemParams, TableId};

/// Rows per index leaf page (4 KB pages, short keys).
pub const INDEX_ENTRIES_PER_PAGE: f64 = 300.0;
/// B-tree root-to-leaf traversal: pages touched per probe.
pub const INDEX_TRAVERSAL_PAGES: f64 = 2.0;

/// What [`CostModel::index_probe`] reads of one index: its column, the
/// traversal term and the fetch terms of its cluster ratio `cr`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeTerms {
    /// The indexed column.
    pub column: ColumnId,
    /// Root-to-leaf pages times the random-page cost, after the cache.
    traversal: f64,
    /// `(1 - cr)²`: the share of fetched rows that jump far.
    far: f64,
    cr: f64,
}

/// Cost model bound to a database's belief configuration.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    db: &'a Database,
    params: &'a SystemParams,
}

impl<'a> CostModel<'a> {
    /// Cost model over the optimizer's belief parameters.
    pub fn belief(db: &'a Database) -> Self {
        CostModel {
            db,
            params: &db.config.belief,
        }
    }

    pub fn params(&self) -> &SystemParams {
        self.params
    }

    /// Buffer-pool hit ratio the model assumes for repeated access to a
    /// table of `pages` pages.
    pub fn hit_ratio(&self, pages: f64) -> f64 {
        (self.params.buffer_pool_pages as f64 / pages.max(1.0)).min(1.0)
    }

    /// Full sequential scan of a table instance, applying `n_preds`
    /// predicate terms to every row.
    pub fn tbscan(&self, table: TableId, n_preds: usize) -> f64 {
        let stats = self.db.belief.table(table);
        let io = stats.pages as f64 * self.params.seq_page_ms_for(table);
        let cpu = stats.row_count as f64
            * (self.params.cpu_row_ms + n_preds as f64 * self.params.cpu_pred_ms);
        io + cpu
    }

    /// Index scan selecting `key_sel` of the table's rows through `index`,
    /// optionally fetching data pages (`fetch`). `n_preds` residual
    /// predicate terms are applied to fetched rows.
    pub fn ixscan(
        &self,
        table: TableId,
        index: IndexId,
        key_sel: f64,
        fetch: bool,
        n_preds: usize,
    ) -> f64 {
        let stats = self.db.belief.table(table);
        let rows = stats.row_count as f64;
        let selected = (rows * key_sel).max(1.0);
        let leaf_pages = (selected / INDEX_ENTRIES_PER_PAGE).ceil();
        let mut cost = INDEX_TRAVERSAL_PAGES * self.params.random_page_ms
            + leaf_pages * self.params.seq_page_ms
            + selected * self.params.cpu_row_ms;
        if fetch {
            cost += self.fetch_cost(table, index, selected);
            cost += selected * n_preds as f64 * self.params.cpu_pred_ms;
        }
        cost
    }

    /// Cost of fetching `rows` data rows through `index`, as the catalog's
    /// cluster ratio predicts.
    ///
    /// Dense-fetch model shared (structurally) with the executor: the
    /// clustered mass reads `cr x sel x pages` pages sequentially; of the
    /// out-of-order rows, only the far jumpers — quadratic in `(1 - cr)` —
    /// pay a true random I/O, because near misses land inside the buffered
    /// window of the sequential stream. Scatter-dominated fetches
    /// (`cr < 0.5`) whose page working set exceeds the buffer pool *flood*:
    /// every scattered access misses (the paper's Figure 4 pathology).
    ///
    /// The per-table transfer-rate multiplier applies to data-tablespace
    /// sequential scans (TBSCAN), not to index-mediated fetches — DB2's
    /// TRANSFERRATE is a tablespace property.
    pub fn fetch_cost(&self, table: TableId, index: IndexId, rows: f64) -> f64 {
        let stats = self.db.belief.table(table);
        let cr = self
            .db
            .table(table)
            .index(index)
            .cluster_ratio
            .clamp(0.0, 1.0);
        let pages = stats.pages as f64;
        let bp = self.params.buffer_pool_pages as f64;
        let sel = (rows / stats.row_count.max(1) as f64).min(1.0);
        let seq_pages = (cr * sel * pages).ceil();
        let scattered_rows = (1.0 - cr) * rows;
        let mut far_rows = (1.0 - cr) * scattered_rows;
        if cr < 0.5 && scattered_rows.min(pages) > bp {
            far_rows = scattered_rows;
        }
        seq_pages * self.params.seq_page_ms + far_rows * self.params.random_page_ms
    }

    /// The terms of an index probe under a nested-loop join that depend on
    /// the index alone, computed once per access path.
    pub fn probe_terms(&self, table: TableId, index: IndexId) -> ProbeTerms {
        let stats = self.db.belief.table(table);
        let miss = 1.0 - self.hit_ratio(stats.pages as f64);
        let ix = self.db.table(table).index(index);
        let cr = ix.cluster_ratio;
        ProbeTerms {
            column: ix.column,
            traversal: INDEX_TRAVERSAL_PAGES * self.params.random_page_ms * miss.max(0.02),
            far: (1.0 - cr) * (1.0 - cr),
            cr,
        }
    }

    /// Per-probe cost of an index access under a nested-loop join,
    /// returning `match_rows` rows per probe.
    pub fn index_probe(&self, terms: &ProbeTerms, match_rows: f64, fetch: bool) -> f64 {
        let mut cost = terms.traversal + match_rows * self.params.cpu_row_ms;
        if fetch {
            // Probe fetches share the dense-fetch shape: far jumpers are
            // quadratic in (1 - cr); clustered rows ride the page cache.
            cost += terms.far * match_rows * self.params.random_page_ms
                + terms.cr * match_rows * self.params.seq_page_ms;
        }
        cost
    }

    /// The share of one execution's cost that a repeated execution of a
    /// plan over `pages` belief pages costs, after the assumed buffer-pool
    /// caching.
    pub fn rescan_factor(&self, pages: f64) -> f64 {
        1.0 - 0.9 * self.hit_ratio(pages)
    }

    /// Delta cost of a nested-loop join that re-executes an arbitrary
    /// inner plan per outer row, each repeat at `rescan` (the inner's
    /// [`Self::rescan_factor`]) of its cost.
    pub fn nljoin_rescan(&self, outer_rows: f64, inner_cost: f64, rescan: f64) -> f64 {
        // First execution at full price, repeats at the cached rate.
        let repeat = inner_cost * rescan;
        inner_cost + (outer_rows - 1.0).max(0.0) * repeat + outer_rows * self.params.cpu_row_ms
    }

    /// Delta cost of a hash join (build inner, probe outer).
    /// `match_frac` is the fraction of outer rows with a join partner —
    /// the bloom-filter variant skips hash-table probes (and spill I/O)
    /// for the rest.
    pub fn hsjoin(
        &self,
        outer_rows: f64,
        inner_rows: f64,
        inner_width: f64,
        bloom: bool,
        match_frac: f64,
    ) -> f64 {
        let build = inner_rows * self.params.cpu_hash_ms;
        let inner_bytes = inner_rows * inner_width;
        let heap_bytes = self.params.sort_heap_pages as f64 * self.params.page_size as f64;
        let mut spill_io = 0.0;
        if inner_bytes > heap_bytes {
            // Partitions written and re-read on both sides.
            let excess_pages = (inner_bytes - heap_bytes) / self.params.page_size as f64;
            let outer_spill_rows = if bloom {
                outer_rows * match_frac.clamp(0.0, 1.0)
            } else {
                outer_rows
            };
            let outer_pages = outer_spill_rows * 16.0 / self.params.page_size as f64;
            spill_io = 2.0 * (excess_pages + outer_pages) * self.params.seq_page_ms;
        }
        let probe_rows = if bloom {
            // Bloom lookups are cheap; full probes only for likely matches.
            outer_rows * (0.1 + 0.9 * match_frac.clamp(0.0, 1.0))
        } else {
            outer_rows
        };
        build + probe_rows * self.params.cpu_hash_ms + spill_io
    }

    /// Delta cost of a merge join over two sorted inputs. The optimizer's
    /// model charges conservatively for merge bookkeeping (comparisons,
    /// rewinds for duplicate keys); crucially it does *not* model early
    /// termination — which is exactly why it misses the paper's Figure 8
    /// opportunity.
    pub fn msjoin(&self, outer_rows: f64, inner_rows: f64) -> f64 {
        (outer_rows + inner_rows) * self.params.cpu_row_ms * 3.0
    }

    /// Cost of sorting `rows` rows of `width` bytes, spilling beyond the
    /// sort heap.
    pub fn sort(&self, rows: f64, width: f64) -> f64 {
        let rows = rows.max(1.0);
        let cpu = rows * rows.log2().max(1.0) * self.params.cpu_row_ms * 0.25;
        let bytes = rows * width;
        let heap_bytes = self.params.sort_heap_pages as f64 * self.params.page_size as f64;
        let spill = if bytes > heap_bytes {
            let pages = bytes / self.params.page_size as f64;
            2.0 * pages * self.params.seq_page_ms
        } else {
            0.0
        };
        cpu + spill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, Index, SystemConfig, Table};

    fn db() -> Database {
        let mut b = DatabaseBuilder::new("cost", SystemConfig::default_1gb());
        let mut sales = Table::new(
            "SALES",
            vec![
                col("S_PK", ColumnType::Integer),
                col("S_V", ColumnType::Varchar(80)),
            ],
        );
        sales.add_index(Index {
            name: "S_PK_IX".into(),
            column: ColumnId(0),
            unique: true,
            cluster_ratio: 0.95,
        });
        b.add_table(
            sales,
            2_000_000,
            vec![
                ColumnStats::uniform(2_000_000, 0.0, 2e6, 4),
                ColumnStats::uniform(1_000, 0.0, 1e6, 40),
            ],
        );
        let mut tiny = Table::new("TINY", vec![col("T_PK", ColumnType::Integer)]);
        tiny.add_index(Index {
            name: "T_PK_IX".into(),
            column: ColumnId(0),
            unique: true,
            cluster_ratio: 0.99,
        });
        b.add_table(tiny, 100, vec![ColumnStats::uniform(100, 0.0, 100.0, 4)]);
        b.build()
    }

    #[test]
    fn selective_index_beats_full_scan() {
        let db = db();
        let m = CostModel::belief(&db);
        let t = TableId(0);
        let scan = m.tbscan(t, 1);
        let ix = m.ixscan(t, IndexId(0), 0.0001, true, 0);
        assert!(ix < scan, "ixscan {ix} should beat tbscan {scan}");
    }

    #[test]
    fn unselective_index_loses_to_full_scan() {
        let db = db();
        let m = CostModel::belief(&db);
        let t = TableId(0);
        let scan = m.tbscan(t, 1);
        let ix = m.ixscan(t, IndexId(0), 0.9, true, 0);
        assert!(
            ix > scan,
            "unselective ixscan {ix} should lose to tbscan {scan}"
        );
    }

    #[test]
    fn low_cluster_ratio_raises_fetch_cost() {
        let database = db();
        let m = CostModel::belief(&database);
        let clustered = m.fetch_cost(TableId(0), IndexId(0), 50_000.0);
        // Rebuild the catalog with a low cluster ratio and re-cost.
        let mut b = DatabaseBuilder::new("cost2", SystemConfig::default_1gb());
        let mut sales = Table::new(
            "SALES",
            vec![
                col("S_PK", ColumnType::Integer),
                col("S_V", ColumnType::Varchar(80)),
            ],
        );
        sales.add_index(Index {
            name: "S_PK_IX".into(),
            column: ColumnId(0),
            unique: true,
            cluster_ratio: 0.05,
        });
        b.add_table(
            sales,
            2_000_000,
            vec![
                ColumnStats::uniform(2_000_000, 0.0, 2e6, 4),
                ColumnStats::uniform(1_000, 0.0, 1e6, 40),
            ],
        );
        let db2 = b.build();
        let m2 = CostModel::belief(&db2);
        let unclustered = m2.fetch_cost(TableId(0), IndexId(0), 50_000.0);
        assert!(
            unclustered > clustered * 3.0,
            "unclustered {unclustered} vs clustered {clustered}"
        );
    }

    #[test]
    fn transfer_rate_multiplier_inflates_tbscan() {
        let mut b = DatabaseBuilder::new("tr", SystemConfig::default_1gb());
        let t = b.add_table(
            Table::new("T", vec![col("A", ColumnType::Varchar(200))]),
            1_000_000,
            vec![ColumnStats::uniform(1_000_000, 0.0, 1e6, 100)],
        );
        b.plant_transfer_rate_belief(t, 3.0);
        let db = b.build();
        let m = CostModel::belief(&db);
        let inflated = m.tbscan(t, 0);
        // Compare with a clean database.
        let mut b2 = DatabaseBuilder::new("tr2", SystemConfig::default_1gb());
        let t2 = b2.add_table(
            Table::new("T", vec![col("A", ColumnType::Varchar(200))]),
            1_000_000,
            vec![ColumnStats::uniform(1_000_000, 0.0, 1e6, 100)],
        );
        let db2 = b2.build();
        let clean = CostModel::belief(&db2).tbscan(t2, 0);
        assert!(inflated > clean * 1.5);
    }

    #[test]
    fn bloom_reduces_hsjoin_cost_for_selective_joins() {
        let db = db();
        let m = CostModel::belief(&db);
        let plain = m.hsjoin(1_000_000.0, 2_000_000.0, 50.0, false, 0.01);
        let bloom = m.hsjoin(1_000_000.0, 2_000_000.0, 50.0, true, 0.01);
        assert!(bloom < plain, "bloom {bloom} should beat plain {plain}");
        // With every outer row matching, bloom gains little.
        let plain_all = m.hsjoin(1_000_000.0, 2_000_000.0, 50.0, false, 1.0);
        let bloom_all = m.hsjoin(1_000_000.0, 2_000_000.0, 50.0, true, 1.0);
        assert!(bloom_all >= plain_all * 0.9);
    }

    #[test]
    fn sort_spill_kicks_in_beyond_heap() {
        let db = db();
        let m = CostModel::belief(&db);
        let small = m.sort(10_000.0, 16.0);
        let big = m.sort(10_000_000.0, 16.0);
        assert!(big > small * 100.0);
    }

    #[test]
    fn nljoin_rescan_discounts_cached_inner() {
        let db = db();
        let m = CostModel::belief(&db);
        // Tiny inner (1 page) is nearly free to re-scan.
        let cached = m.nljoin_rescan(1_000.0, 0.5, m.rescan_factor(1.0));
        // Huge inner (1M pages) pays nearly full price each probe.
        let uncached = m.nljoin_rescan(1_000.0, 0.5, m.rescan_factor(1_000_000.0));
        assert!(
            cached < uncached / 5.0,
            "cached {cached} uncached {uncached}"
        );
    }
}
