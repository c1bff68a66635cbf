//! The durable knowledge base, crash included.
//!
//! The paper's premise is that learned guidelines *accumulate*: the KB is
//! "a robust, transactional, and persistent storage layer" (§3.2) that
//! off-peak learning runs keep feeding. This tour exercises exactly that
//! with a durable store of one shard (`sharded.meta` plus `shard-0000/`):
//!
//! 1. learn one workload into an on-disk KB and checkpoint it,
//! 2. keep learning a second workload into the rotated write-ahead log,
//! 3. kill the store mid-write (simulated by truncating the log to a
//!    torn, half-record tail),
//! 4. reopen, and match queries against the recovered templates.
//!
//! Run with: `cargo run --release --example durable_kb`

use galo_core::{match_plan, KbBuilder, MatchConfig};
use galo_optimizer::Optimizer;
use galo_rdf::ScratchDir;

/// Newest write-ahead log of the knowledge base's one shard, in its
/// `shard-0000/` directory.
fn newest_wal(dir: &std::path::Path) -> std::path::PathBuf {
    let mut wals: Vec<_> = std::fs::read_dir(dir.join("shard-0000"))
        .expect("store dir readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    wals.sort();
    wals.pop().expect("store dir holds a wal")
}

fn list_store_files(dir: &std::path::Path) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("store dir readable")
        .filter_map(|e| e.ok())
        .map(|e| {
            let len = e.metadata().map(|m| m.len()).unwrap_or(0);
            (e.file_name().to_string_lossy().into_owned(), len)
        })
        .collect();
    entries.sort();
    for (name, len) in entries {
        println!("    {name:<28} {len:>8} bytes");
    }
}

fn main() {
    let scratch = ScratchDir::new("durable-kb-example");
    let dir = scratch.path();
    println!("knowledge base directory: {}\n", dir.display());

    let cfg = galo_bench::learning_config(true);
    let mut scenarios = galo_bench::problem_queries();
    let (name2, workload2) = scenarios.remove(1);
    let (name1, workload1) = scenarios.remove(0);

    // --- first "off-peak run": learn, checkpoint, exit -----------------
    {
        let galo = KbBuilder::new()
            .durable_dir(dir)
            .build_galo()
            .expect("durable KB opens");
        let report = galo.learn(&workload1, &cfg);
        println!(
            "run 1: learned {} template(s) from '{name1}' into the write-ahead log",
            report.templates_learned
        );
        galo.kb.compact().expect("checkpoint succeeds");
        println!("run 1: checkpointed — log folded into a binary snapshot");
    }

    // --- second run: accumulate a second workload, then die mid-write --
    {
        let galo = KbBuilder::new()
            .durable_dir(dir)
            .build_galo()
            .expect("reopen after clean shutdown");
        let recovered = galo.kb.template_count();
        let report = galo.learn(&workload2, &cfg);
        println!(
            "run 2: reopened with {recovered} template(s), learned {} more from '{name2}'",
            report.templates_learned
        );
    }
    println!("\non disk before the crash:");
    list_store_files(&dir.join("shard-0000"));

    // The "crash": the process died while appending a record, leaving a
    // torn tail. Truncating mid-record simulates the kill exactly — the
    // last record (one template's commit) is short of its advertised
    // length and its checksum, and must be dropped whole.
    let wal = newest_wal(dir);
    let len = std::fs::metadata(&wal).expect("wal stat").len();
    // Cut roughly a third of the log off, landing mid-record.
    let torn = len - (len / 3).clamp(7.min(len), len);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("wal opens");
    f.set_len(torn).expect("truncate");
    drop(f);
    println!(
        "\ncrash! tore {} of {} log bytes off {}",
        len - torn,
        len,
        wal.file_name().unwrap().to_string_lossy()
    );

    // --- recovery: snapshot + committed log tail -----------------------
    let galo = KbBuilder::new()
        .durable_dir(dir)
        .build_galo()
        .expect("crash recovery succeeds");
    let recovered = galo.kb.template_count();
    println!("\nrecovered templates: {recovered}");
    println!(
        "recovered knowledge base: {} triples across {} workload graph(s)",
        galo.kb.server().len(),
        galo.kb.workloads().len()
    );

    // The recovered KB serves the online path: match the first workload's
    // query (its templates were checkpointed, so they survived in full).
    let optimizer = Optimizer::new(&workload1.db);
    let plan = optimizer
        .optimize(&workload1.queries[0])
        .expect("query plans");
    let report = match_plan(&workload1.db, &galo.kb, &plan, &MatchConfig::default());
    println!(
        "matching '{name1}' post-crash: {} probe(s) executed, {} rewrite(s) found",
        report.probes_executed,
        report.rewrites.len()
    );

    if recovered == 0 {
        eprintln!("FAIL: crash recovery lost every committed template");
        std::process::exit(1);
    }
    println!("\nevery committed template survived the crash.");
}
