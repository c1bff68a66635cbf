//! What learning produces, pinned: TPC-DS and then the client workload
//! learned into one fresh knowledge base at the benchmark's learning
//! configuration. The per-workload template and unique sub-query counts,
//! the length and FNV-1a-64 digest of the N-Quads export, and the bits of
//! every learned template's improvement must not move. A change that is
//! meant to keep learning's output (allocation or speed work in the mining
//! loop, the planner, the simulator or the sub-query enumerator) runs
//! this test; one that is meant to change it re-records the values here
//! and says why.

use galo_core::{learn_workload, KnowledgeBase, LearningConfig};
use galo_workloads::{client, tpcds};

/// The benchmark's learning configuration (`benchmark/src/fixture.rs`
/// `learning_config`).
fn learning_config() -> LearningConfig {
    LearningConfig {
        probes_per_pred: 2,
        random_plans: 6,
        runs_per_plan: 3,
        max_subqueries_per_query: 60,
        threads: 2,
        ..LearningConfig::default()
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(workload, templates_learned, subqueries_unique, improvement digest)`;
/// the digest is FNV-1a-64 over each learned template's id and the
/// little-endian bits of its improvement, in report order.
const PER_WORKLOAD: [(&str, usize, usize, u64); 2] = [
    ("tpcds", 94, 1_463, 0x5dc1_db6e_b715_8797),
    ("client", 186, 1_637, 0x18fc_32df_4143_e075),
];
/// The export lists named graphs by name, so the `client` workload graph's
/// lines come before `tpcds`'s.
const EXPORT_LEN: usize = 3_446_757;
const EXPORT_FNV: u64 = 0x1d37_c0c6_6373_b8b3;

#[test]
fn learning_both_workloads_reproduces_the_recorded_knowledge_base() {
    let cfg = learning_config();
    let kb = KnowledgeBase::new();
    for (w, (name, templates, unique, improvements)) in [tpcds::workload(), client::workload()]
        .iter()
        .zip(PER_WORKLOAD)
    {
        let report = learn_workload(w, &kb, &cfg);
        let digest = report.learned.iter().fold(FNV_OFFSET, |h, l| {
            let h = fnv1a(h, l.template_id.as_bytes());
            fnv1a(h, &l.improvement.to_bits().to_le_bytes())
        });
        println!(
            "{name}: {} templates from {} unique sub-queries, improvements {digest:#018x}",
            report.templates_learned, report.subqueries_unique
        );
        assert_eq!(report.templates_learned, templates, "{name}");
        assert_eq!(report.subqueries_unique, unique, "{name}");
        assert_eq!(digest, improvements, "{name}");
    }
    let export = kb.export();
    let digest = fnv1a(FNV_OFFSET, export.as_bytes());
    println!("export: {} bytes, fnv {digest:#018x}", export.len());
    assert_eq!(export.len(), EXPORT_LEN);
    assert_eq!(digest, EXPORT_FNV);
}
