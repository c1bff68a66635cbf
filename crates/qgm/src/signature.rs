//! Structural segment signatures — the pruning key of the compile-once
//! match pipeline.
//!
//! Online matching probes the knowledge base once per candidate segment.
//! Most segments cannot possibly match *any* stored template: a segment
//! only matches a template when the template embeds it exactly below the
//! template's root join (same join operators with the same roles, same
//! scan operators, same join count). That makes the multiset of join and
//! scan operator types, together with the join count, an exact structural
//! invariant shared by a segment and every template it can match — table
//! *names* are deliberately excluded, because templates abstract them to
//! canonical labels so that patterns learned on one schema match queries
//! over another (the paper's Exp-2 cross-workload reuse).
//!
//! [`shape_signature`] hashes that invariant; the knowledge base keeps an
//! index from signature to candidate template IRIs so segments with no
//! candidates skip probing entirely.

use crate::plan::{PopId, Qgm};

/// The operator types that participate in the structural signature — the
/// joins and scans that anchor a match — in ascending name order, the
/// order [`shape_signature`] hashes a multiset in. Transparent operators
/// (`SORT`, `FILTER`, `RETURN`) are excluded: a template keeps them
/// *above* its root join (e.g. the `RETURN` the abstraction preserves),
/// where a matching segment never sees them.
const SIGNATURE_OPS: [&str; 6] = ["F-IXSCAN", "HSJOIN", "IXSCAN", "MSJOIN", "NLJOIN", "TBSCAN"];

/// Where `name` sits in [`SIGNATURE_OPS`], if it is a signature type.
fn signature_slot(name: &str) -> Option<usize> {
    Some(match name {
        "F-IXSCAN" => 0,
        "HSJOIN" => 1,
        "IXSCAN" => 2,
        "MSJOIN" => 3,
        "NLJOIN" => 4,
        "TBSCAN" => 5,
        _ => return None,
    })
}

/// True for the operator types that participate in the structural
/// signature (see `SIGNATURE_OPS`).
pub fn is_signature_op(name: &str) -> bool {
    signature_slot(name).is_some()
}

/// Order-insensitive FNV-1a hash of a plan shape: the join count plus the
/// multiset of signature operator types (non-signature types are filtered
/// out here, so callers can pass every operator of a subtree or template).
/// The multiset is hashed as its sorted list of names, each followed by a
/// zero byte; it is counted per type rather than sorted, so nothing is
/// allocated. Deterministic across processes — safe to persist or shard
/// on.
pub fn shape_signature<'a>(join_count: usize, op_types: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut counts = [0usize; SIGNATURE_OPS.len()];
    for slot in op_types.into_iter().filter_map(signature_slot) {
        counts[slot] += 1;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for byte in (join_count as u64).to_le_bytes() {
        eat(byte);
    }
    for (op, &count) in SIGNATURE_OPS.iter().zip(&counts) {
        for _ in 0..count {
            for byte in op.bytes() {
                eat(byte);
            }
            eat(0); // separator: ["AB"] must not collide with ["A", "B"]
        }
    }
    hash
}

/// The cheap structural key of one plan segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSignature {
    /// [`shape_signature`] over the segment's operators.
    pub hash: u64,
    /// Joins in the segment.
    pub join_count: usize,
    /// Table instances scanned (indexes into `query.tables`), in scan
    /// pre-order. Schema-dependent, so *not* part of `hash` — callers use
    /// it for per-plan bookkeeping (e.g. resolving the table-name set),
    /// never as a knowledge-base key.
    pub tables: Vec<usize>,
}

/// Compute the structural signature of the segment rooted at `root`.
pub fn segment_signature(qgm: &Qgm, root: PopId) -> SegmentSignature {
    let subtree = qgm.subtree(root);
    let hash = shape_signature(
        qgm.join_count(root),
        subtree.iter().map(|&p| qgm.pop(p).kind.name()),
    );
    SegmentSignature {
        hash,
        join_count: qgm.join_count(root),
        tables: subtree
            .iter()
            .filter_map(|&p| qgm.pop(p).kind.scan_table())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PopKind;
    use galo_catalog::TableId;
    use galo_sql::{Query, TableRef};

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

    fn join_plan(kind: PopKind) -> Qgm {
        let mut b = Qgm::builder(query_n(2));
        let s0 = b.add(PopKind::TbScan { table: 0 }, vec![], 100.0, 1.0);
        let s1 = b.add(PopKind::TbScan { table: 1 }, vec![], 10.0, 1.0);
        let j = b.add(kind, vec![s0, s1], 100.0, 5.0);
        b.finish(j)
    }

    /// The signature as it was defined before it counted types: the
    /// signature names sorted, then hashed.
    fn sorted_reference<'a>(join_count: usize, op_types: impl IntoIterator<Item = &'a str>) -> u64 {
        let mut ops: Vec<&str> = op_types
            .into_iter()
            .filter(|n| is_signature_op(n))
            .collect();
        ops.sort_unstable();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for byte in (join_count as u64).to_le_bytes() {
            eat(byte);
        }
        for op in ops {
            for byte in op.bytes() {
                eat(byte);
            }
            eat(0);
        }
        hash
    }

    #[test]
    fn signature_names_are_listed_in_sorted_order() {
        let mut sorted = SIGNATURE_OPS;
        sorted.sort_unstable();
        assert_eq!(sorted, SIGNATURE_OPS);
        for (slot, op) in SIGNATURE_OPS.iter().enumerate() {
            assert_eq!(signature_slot(op), Some(slot));
        }
    }

    #[test]
    fn counted_signature_equals_the_sorted_reference() {
        // Every type a template or plan can carry, signature or not, plus
        // names that only look like one.
        const NAMES: [&str; 12] = [
            "NLJOIN", "HSJOIN", "MSJOIN", "TBSCAN", "IXSCAN", "F-IXSCAN", "SORT", "FILTER",
            "RETURN", "", "TBSCAN ", "ixscan",
        ];
        let mut state: u64 = 0x5EED_0F5E_9A11_C0DE;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..4_000 {
            let len = next(14);
            let ops: Vec<&str> = (0..len).map(|_| NAMES[next(NAMES.len())]).collect();
            let joins = next(7);
            assert_eq!(
                shape_signature(joins, ops.iter().copied()),
                sorted_reference(joins, ops.iter().copied()),
                "{joins} joins over {ops:?}"
            );
        }
    }

    #[test]
    fn signature_is_order_insensitive_and_type_sensitive() {
        let a = shape_signature(1, ["HSJOIN", "TBSCAN", "TBSCAN"]);
        let b = shape_signature(1, ["TBSCAN", "HSJOIN", "TBSCAN"]);
        assert_eq!(a, b);
        assert_ne!(a, shape_signature(1, ["NLJOIN", "TBSCAN", "TBSCAN"]));
        assert_ne!(a, shape_signature(2, ["HSJOIN", "TBSCAN", "TBSCAN"]));
        assert_ne!(a, shape_signature(1, ["HSJOIN", "TBSCAN"]));
    }

    #[test]
    fn transparent_operators_do_not_change_the_signature() {
        assert_eq!(
            shape_signature(1, ["RETURN", "HSJOIN", "TBSCAN", "SORT", "TBSCAN"]),
            shape_signature(1, ["HSJOIN", "TBSCAN", "TBSCAN"])
        );
    }

    #[test]
    fn separator_prevents_concatenation_collisions() {
        assert_ne!(
            shape_signature(0, ["TBSCAN", "TBSCAN"]),
            shape_signature(0, ["TBSCAN"])
        );
    }

    #[test]
    fn segment_signature_matches_template_side_hash() {
        // A plan segment and the template abstracted from it (which keeps
        // the RETURN above the join) must land on the same signature.
        let plan = join_plan(PopKind::HsJoin { bloom: false });
        let join = plan.pop(plan.root()).inputs[0];
        let seg = segment_signature(&plan, join);
        assert_eq!(seg.join_count, 1);
        assert_eq!(seg.tables, vec![0, 1]);
        let template_side = shape_signature(
            1,
            plan.subtree(plan.root())
                .iter()
                .map(|&p| plan.pop(p).kind.name()),
        );
        assert_eq!(seg.hash, template_side);
    }

    #[test]
    fn join_method_distinguishes_segments() {
        let hs = join_plan(PopKind::HsJoin { bloom: false });
        let nl = join_plan(PopKind::NlJoin);
        let hs_sig = segment_signature(&hs, hs.root());
        let nl_sig = segment_signature(&nl, nl.root());
        assert_ne!(hs_sig.hash, nl_sig.hash);
    }
}
