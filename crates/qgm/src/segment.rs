//! Sub-QGM segmentation and plan → guideline extraction.
//!
//! The matching engine "climbs up iteratively over a segmentation of the
//! QGM (sub-QGM's) … the size of a sub-QGM is capped by the same predefined
//! threshold that was used in the learning phase (identified by the number
//! of joins). This process is recursively applied until the stopping
//! LOLEPOP denoted as RETURN is found" (paper §3.3).

use crate::guideline::GuidelineNode;
use crate::plan::{PopId, PopKind, Qgm};

/// One matchable segment: a join-rooted subtree of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub root: PopId,
    pub join_count: usize,
    /// The segment's pre-order extent: its operators are the pre-order
    /// positions `start..start + len`, root first (`start` is the root's
    /// `op_id − 1`).
    pub start: usize,
    pub len: usize,
}

impl Segment {
    /// The pre-order positions of the segment's operators.
    pub fn extent(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// Enumerate all join-rooted sub-QGMs with at most `max_joins` joins,
/// bottom-up (smaller segments first, so matches on small patterns are
/// attempted before their enclosing patterns; equal join counts in
/// pre-order). Join counts and extents come from one children-first pass
/// over the plan ([`Qgm::extents`]).
pub fn segments(qgm: &Qgm, max_joins: usize) -> Vec<Segment> {
    let extents = qgm.extents();
    let mut found: Vec<Segment> = qgm
        .pops()
        .filter(|(_, p)| p.kind.is_join())
        .map(|(id, p)| {
            let extent = extents[id.0 as usize];
            Segment {
                root: id,
                join_count: extent.joins,
                start: p.op_id as usize - 1,
                len: extent.size,
            }
        })
        .filter(|s| s.join_count <= max_joins)
        .collect();
    found.sort_by_key(|s| (s.join_count, s.start));
    found
}

/// Convert a plan subtree into a guideline tree: joins become join
/// elements, scans become access elements with their instance qualifiers,
/// and transparent operators (SORT, FILTER, RETURN) are skipped — a
/// guideline constrains join order/methods and access paths only, leaving
/// the rest cost-based (paper §3.2).
pub fn guideline_from_plan(qgm: &Qgm, root: PopId) -> Option<GuidelineNode> {
    let pop = qgm.pop(root);
    match &pop.kind {
        PopKind::NlJoin | PopKind::HsJoin { .. } | PopKind::MsJoin => {
            let outer = guideline_from_plan(qgm, pop.inputs[0])?;
            let inner = guideline_from_plan(qgm, pop.inputs[1])?;
            Some(match pop.kind {
                PopKind::NlJoin => GuidelineNode::NlJoin(Box::new(outer), Box::new(inner)),
                PopKind::HsJoin { .. } => GuidelineNode::HsJoin(Box::new(outer), Box::new(inner)),
                PopKind::MsJoin => GuidelineNode::MsJoin(Box::new(outer), Box::new(inner)),
                _ => unreachable!(),
            })
        }
        PopKind::TbScan { table } => Some(GuidelineNode::TbScan {
            tabid: qgm.query.tables[*table].qualifier.clone(),
        }),
        PopKind::IxScan { table, .. } => Some(GuidelineNode::IxScan {
            tabid: qgm.query.tables[*table].qualifier.clone(),
            // The concrete index name is resolved when the guideline is
            // applied; templates abstract it away.
            index: None,
        }),
        PopKind::Sort { .. } | PopKind::Filter | PopKind::Return => pop
            .inputs
            .first()
            .and_then(|&c| guideline_from_plan(qgm, c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{ColumnId, IndexId, TableId};
    use galo_sql::{ColRef, Query, TableRef};

    fn query_n(n: usize) -> Query {
        Query {
            name: "t".into(),
            tables: (0..n)
                .map(|i| TableRef {
                    table: TableId(i as u32),
                    qualifier: format!("Q{}", i + 1),
                })
                .collect(),
            joins: vec![],
            locals: vec![],
            projections: vec![],
        }
    }

    /// ((T0 ⋈ T1) ⋈ (T2 ⋈ T3)) — a bushy three-join plan with a sort.
    fn bushy_plan() -> Qgm {
        let mut b = Qgm::builder(query_n(4));
        let s0 = b.add(PopKind::TbScan { table: 0 }, vec![], 100.0, 1.0);
        let s1 = b.add(
            PopKind::IxScan {
                table: 1,
                index: IndexId(0),
                fetch: false,
            },
            vec![],
            10.0,
            1.0,
        );
        let j0 = b.add(PopKind::HsJoin { bloom: false }, vec![s0, s1], 100.0, 5.0);
        let s2 = b.add(PopKind::TbScan { table: 2 }, vec![], 200.0, 1.0);
        let s3 = b.add(PopKind::TbScan { table: 3 }, vec![], 20.0, 1.0);
        let sort = b.add(
            PopKind::Sort {
                key: Some(ColRef {
                    table_idx: 3,
                    column: ColumnId(0),
                }),
            },
            vec![s3],
            20.0,
            2.0,
        );
        let j1 = b.add(PopKind::MsJoin, vec![s2, sort], 200.0, 9.0);
        let top = b.add(PopKind::NlJoin, vec![j0, j1], 400.0, 20.0);
        b.finish(top)
    }

    #[test]
    fn segments_respect_threshold_and_order() {
        let plan = bushy_plan();
        let segs = segments(&plan, 1);
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|s| s.join_count == 1));

        let segs3 = segments(&plan, 3);
        assert_eq!(segs3.len(), 3);
        // Bottom-up: single-join segments come before the three-join root.
        assert_eq!(segs3.last().unwrap().join_count, 3);
        for s in &segs3 {
            assert_eq!(s.join_count, plan.join_count(s.root));
            let ids: Vec<usize> = plan
                .subtree(s.root)
                .iter()
                .map(|&p| plan.pop(p).op_id as usize - 1)
                .collect();
            assert_eq!(ids, s.extent().collect::<Vec<_>>());
        }
    }

    #[test]
    fn segments_of_scan_only_plan_is_empty() {
        let mut b = Qgm::builder(query_n(1));
        let s = b.add(PopKind::TbScan { table: 0 }, vec![], 5.0, 1.0);
        let plan = b.finish(s);
        assert!(segments(&plan, 4).is_empty());
    }

    #[test]
    fn guideline_extraction_skips_sorts() {
        let plan = bushy_plan();
        let g = guideline_from_plan(&plan, plan.root()).unwrap();
        // The SORT between MSJOIN and TBSCAN(Q4) must not appear.
        assert_eq!(
            g,
            GuidelineNode::NlJoin(
                Box::new(GuidelineNode::HsJoin(
                    Box::new(GuidelineNode::TbScan { tabid: "Q1".into() }),
                    Box::new(GuidelineNode::IxScan {
                        tabid: "Q2".into(),
                        index: None
                    }),
                )),
                Box::new(GuidelineNode::MsJoin(
                    Box::new(GuidelineNode::TbScan { tabid: "Q3".into() }),
                    Box::new(GuidelineNode::TbScan { tabid: "Q4".into() }),
                )),
            )
        );
    }

    #[test]
    fn guideline_join_count_matches_plan() {
        let plan = bushy_plan();
        let g = guideline_from_plan(&plan, plan.root()).unwrap();
        assert_eq!(g.join_count(), plan.join_count(plan.root()));
    }
}
