//! Workload golden for the cost-based optimizer: every plan it chooses for
//! the 99 TPC-DS and 116 client queries, under four planner set-ups, is
//! pinned as the FNV-64 of the plan's debug text (operators, shapes,
//! cardinalities and costs — `{:?}` prints floats round-trip exact, so a
//! one-ulp cost drift changes the hash).
//!
//! `tests/golden/optimizer_plans.txt` is generated by the `#[ignore]`d
//! `bless` test. A change to `crates/optimizer` that means to keep plans
//! identical must leave that file alone; one that means to change plans
//! re-blesses it and says so.

use std::fmt::Write as _;
use std::path::PathBuf;

use galo_optimizer::{Optimizer, PlannerConfig};
use galo_qgm::{GuidelineDoc, GuidelineNode};
use galo_sql::Query;
use galo_workloads::{client, tpcds, Workload};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/optimizer_plans.txt")
}

/// FNV-1a 64 of the value's debug text.
fn hash<T: std::fmt::Debug>(value: &T) -> u64 {
    let text = format!("{value:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `HSJOIN(TBSCAN, TBSCAN)` over the endpoints of the query's first join
/// predicate, or `None` for a single-table query.
fn first_join_guideline(q: &Query) -> Option<GuidelineDoc> {
    let j = q.joins.first()?;
    let scan = |t: usize| {
        Box::new(GuidelineNode::TbScan {
            tabid: q.tables[t].qualifier.clone(),
        })
    };
    Some(GuidelineDoc::new(vec![GuidelineNode::HsJoin(
        scan(j.left.table_idx),
        scan(j.right.table_idx),
    )]))
}

/// One line per query: name, then the plan hash under (i) the default
/// config, (ii) all-greedy, (iii) bloom off, (iv) a one-join guideline
/// (plan and `GuidelineOutcome` together).
fn render(workload: &Workload, out: &mut String) {
    let default = Optimizer::new(&workload.db);
    let greedy = Optimizer::with_config(
        &workload.db,
        PlannerConfig {
            dp_unit_limit: 1,
            ..PlannerConfig::default()
        },
    );
    let no_bloom = Optimizer::with_config(
        &workload.db,
        PlannerConfig {
            enable_bloom: false,
            ..PlannerConfig::default()
        },
    );
    for q in &workload.queries {
        let guided = first_join_guideline(q).map(|doc| {
            hash(
                &default
                    .optimize_with_guidelines(q, &doc)
                    .map(|r| (r.qgm, r.outcome)),
            )
        });
        writeln!(
            out,
            "{}/{} {:016x} {:016x} {:016x} {}",
            workload.name,
            q.name,
            hash(&default.optimize(q)),
            hash(&greedy.optimize(q)),
            hash(&no_bloom.optimize(q)),
            guided.map_or("-".to_string(), |h| format!("{h:016x}")),
        )
        .expect("writing to a String cannot fail");
    }
}

fn render_all() -> String {
    let mut out = String::new();
    render(&tpcds::workload(), &mut out);
    render(&client::workload(), &mut out);
    out
}

#[test]
fn workload_plans_match_the_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file is committed");
    let actual = render_all();
    assert_eq!(golden.lines().count(), 99 + 116);
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(
            want, got,
            "plan drifted (name default greedy no-bloom guided)"
        );
    }
    assert_eq!(golden, actual);
}

/// Regenerate the golden file: `cargo test --test optimizer_plans -- --ignored bless`.
#[test]
#[ignore = "rewrites tests/golden/optimizer_plans.txt"]
fn bless() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden file has a parent directory"))
        .expect("create tests/golden");
    std::fs::write(&path, render_all()).expect("write golden file");
}
