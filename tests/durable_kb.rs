//! The durable knowledge base end to end: templates written through a
//! `KbBuilder::durable_dir` knowledge base survive process restarts
//! (here: drop and reopen), the signature index is rebuilt from the recovered triples, a
//! torn write-ahead-log tail loses at most the uncommitted record — and a
//! retraction or a refinement is one record, so a crash leaves all of it
//! or none — and `FusekiLite::import`/`export` round-trips — named-graph
//! N-Quads lines included — through a `DurableStore`-backed dataset.

use galo_catalog::{col, ColumnStats, ColumnType, Database, DatabaseBuilder, SystemConfig, Table};
use galo_core::{
    abstract_plan, match_plan, segment_pop_checks, vocab, KbBuilder, KnowledgeBase, MatchConfig,
    PopObservation, Template, TemplateRefinement,
};
use galo_optimizer::Optimizer;
use galo_qgm::{guideline_from_plan, GuidelineDoc, Qgm};
use galo_rdf::{ScratchDir, Term};
use galo_sql::parse;

/// A two-table database plus an optimized plan over it — the smallest
/// material a template can be abstracted from.
fn setup() -> (Database, Qgm) {
    let mut b = DatabaseBuilder::new("durable", SystemConfig::default_1gb());
    b.add_table(
        Table::new(
            "FACT",
            vec![
                col("F_K", ColumnType::Integer),
                col("F_V", ColumnType::Decimal),
            ],
        ),
        100_000,
        vec![
            ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
            ColumnStats::uniform(10_000, 0.0, 1e6, 8),
        ],
    );
    b.add_table(
        Table::new(
            "DIM",
            vec![
                col("D_K", ColumnType::Integer),
                col("D_A", ColumnType::Integer),
            ],
        ),
        1_000,
        vec![
            ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
            ColumnStats::uniform(50, 0.0, 50.0, 4),
        ],
    );
    let db = b.build();
    let q = parse(
        &db,
        "q",
        "SELECT f_v FROM fact, dim WHERE f_k = d_k AND d_a = 7",
    )
    .unwrap();
    let plan = Optimizer::new(&db).optimize(&q).unwrap();
    (db, plan)
}

fn template(db: &Database, plan: &Qgm, kb: &KnowledgeBase, salt: u64, workload: &str) -> Template {
    let g = GuidelineDoc::new(vec![guideline_from_plan(plan, plan.root()).unwrap()]);
    let mut tpl = abstract_plan(db, plan, plan.root(), &g, kb.fresh_id(salt));
    tpl.improvement = 0.4;
    tpl.source_workload = workload.to_string();
    tpl
}

/// Newest write-ahead log in a durable store directory (the kill-and-
/// reopen tests truncate it to simulate a crash mid-write).
fn newest_wal(dir: &std::path::Path) -> std::path::PathBuf {
    let mut wals: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    wals.sort();
    wals.pop().expect("durable dir holds a wal")
}

#[test]
fn templates_survive_reopen_with_signature_index() {
    let (db, plan) = setup();
    let dir = ScratchDir::new("kb-reopen");
    let (iri, sig) = {
        let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
        let tpl = template(&db, &plan, &kb, 1, "tpcds");
        kb.insert(&tpl);
        assert_eq!(kb.template_count(), 1);
        (
            vocab::template_iri(&tpl.id).str_value().to_string(),
            KnowledgeBase::template_signature(&tpl),
        )
    };
    // A fresh process: recovery replays the log and reindexes.
    let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
    assert_eq!(kb.template_count(), 1);
    assert_eq!(kb.workloads(), vec!["tpcds".to_string()]);
    assert_eq!(kb.candidate_templates(sig), vec![iri.clone()]);
    let (_, source) = kb.guideline_of(&iri).expect("guideline recovered");
    assert_eq!(source, "tpcds");
    // The recovered KB matches plans — the online path works post-crash.
    let report = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert_eq!(report.rewrites.len(), 1);
    assert_eq!(report.rewrites[0].template_iri, iri);
}

#[test]
fn compaction_is_transparent_to_the_kb() {
    let (db, plan) = setup();
    let dir = ScratchDir::new("kb-compact");
    {
        let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
        kb.insert(&template(&db, &plan, &kb, 1, "tpcds"));
        kb.compact().unwrap();
        // Post-compaction inserts land in the rotated log.
        kb.insert(&template(&db, &plan, &kb, 2, "client"));
        assert_eq!(kb.template_count(), 2);
    }
    let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
    assert_eq!(kb.template_count(), 2);
    let mut workloads = kb.workloads();
    workloads.sort();
    assert_eq!(workloads, vec!["client".to_string(), "tpcds".to_string()]);
    assert_eq!(
        match_plan(&db, &kb, &plan, &MatchConfig::default())
            .rewrites
            .len(),
        1
    );
}

#[test]
fn kill_and_reopen_recovers_every_committed_template() {
    let (db, plan) = setup();
    let dir = ScratchDir::new("kb-kill");
    let (iri_a, sig) = {
        let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
        let a = template(&db, &plan, &kb, 1, "tpcds");
        kb.insert(&a);
        // Checkpoint template A, then start writing template B into the
        // fresh log — the "process" dies while B is mid-journal.
        kb.compact().unwrap();
        kb.insert(&template(&db, &plan, &kb, 2, "tpcds"));
        (
            vocab::template_iri(&a.id).str_value().to_string(),
            KnowledgeBase::template_signature(&a),
        )
    };
    // Tear the log mid-record: everything before the torn record is
    // committed, the torn record itself is dropped silently.
    let wal = newest_wal(dir.path());
    let len = std::fs::metadata(&wal).unwrap().len();
    assert!(len > 0, "template B reached the log");
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);

    let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
    // Template A was checkpointed before the crash: fully recovered,
    // indexed, and matchable.
    assert!(kb.candidate_templates(sig).contains(&iri_a));
    assert!(kb.guideline_of(&iri_a).is_some());
    let report = match_plan(&db, &kb, &plan, &MatchConfig::default());
    assert!(!report.rewrites.is_empty(), "recovered template must match");
    // Reopening after recovery is stable (the torn tail was truncated,
    // not re-read differently each time).
    let count = kb.server().len();
    drop(kb);
    let kb2 = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
    assert_eq!(kb2.server().len(), count);
}

#[test]
fn fuseki_import_export_roundtrips_through_durable_dataset() {
    let dir = ScratchDir::new("fuseki-roundtrip");
    let graph = Term::iri("http://galo/kb/graph/workload/tpcds");
    let dump = {
        let f = KbBuilder::new()
            .durable_dir(dir.path())
            .build_server()
            .unwrap();
        f.insert_triples((0..20u32).map(|i| {
            (
                Term::iri(format!("http://galo/qep/pop/{i}")),
                Term::iri("http://galo/qep/property/hasEstimateCardinality"),
                Term::lit(format!("{}", i * 100)),
            )
        }));
        f.insert_triples_in(
            graph.clone(),
            [(
                Term::iri("http://t/1"),
                Term::iri("http://p"),
                Term::lit("a"),
            )],
        );
        f.export()
    };
    // Import replaces a durable dataset's contents; the clear and every
    // inserted quad are journaled, so the import survives a reopen.
    let dir2 = ScratchDir::new("fuseki-roundtrip-2");
    {
        let f2 = KbBuilder::new()
            .durable_dir(dir2.path())
            .build_server()
            .unwrap();
        f2.insert_triples([(
            Term::iri("http://stale"),
            Term::iri("http://p"),
            Term::lit("dropped by import"),
        )]);
        assert_eq!(f2.import(&dump).unwrap(), 20);
    }
    let f2 = KbBuilder::new()
        .durable_dir(dir2.path())
        .build_server()
        .unwrap();
    assert_eq!(f2.len(), 20);
    assert_eq!(f2.graph_names(), vec![graph.clone()]);
    assert!(
        f2.query(
            "SELECT ?s WHERE { ?s <http://galo/qep/property/hasEstimateCardinality> \"500\" . }"
        )
        .unwrap()
        .len()
            == 1
    );
    // The N-Quads line for the named graph round-tripped.
    let tagged = f2.with_store(|st| {
        let gid = st.term_id(&graph).expect("graph interned");
        st.scan_in(gid, None, None, None).len()
    });
    assert_eq!(tagged, 1);
    assert_eq!(f2.export(), dump);
}

#[test]
fn kb_import_reindexes_durable_backend_after_reopen() {
    let (db, plan) = setup();
    // Dump a template from an in-memory KB, import it into a durable one.
    let kb_mem = KnowledgeBase::new();
    let tpl = template(&db, &plan, &kb_mem, 7, "tpcds");
    kb_mem.insert(&tpl);
    let dump = kb_mem.export();
    let sig = KnowledgeBase::template_signature(&tpl);
    let iri = vocab::template_iri(&tpl.id).str_value().to_string();

    let dir = ScratchDir::new("kb-import");
    {
        let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
        kb.import(&dump).unwrap();
        assert_eq!(kb.candidate_templates(sig), vec![iri.clone()]);
    }
    // The signature index is rebuilt from disk on reopen, not remembered.
    let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
    assert_eq!(kb.template_count(), 1);
    assert_eq!(kb.candidate_templates(sig), vec![iri]);
    assert_eq!(kb.export(), dump);
}

/// Apply `change` to a durable knowledge base holding two templates, then
/// cut the log at every byte of what the change journaled and reopen: the
/// image — sorted export and the first template's candidates — is the one
/// before the change at every cut, and the one after it only with the
/// whole record there. Never a template with half its statements, never
/// a stat without its bounds.
fn cut_at_every_byte_of(what: &str, change: impl Fn(&KnowledgeBase, &str)) {
    let (db, plan) = setup();
    let dir = ScratchDir::new(&format!("kb-cut-{what}"));
    let open = || KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
    let view = |kb: &KnowledgeBase, sig: u64| {
        let mut lines: Vec<String> = kb.export().lines().map(str::to_string).collect();
        lines.sort();
        (lines, kb.candidate_templates(sig), kb.workloads())
    };
    let (sig, before, after, start) = {
        let kb = open();
        let a = template(&db, &plan, &kb, 1, "tpcds");
        kb.insert(&a);
        kb.insert(&template(&db, &plan, &kb, 2, "client"));
        let sig = KnowledgeBase::template_signature(&a);
        let before = view(&kb, sig);
        let start = std::fs::metadata(newest_wal(dir.path())).unwrap().len() as usize;
        let pressure = kb.storage_pressures()[0].wal_records;
        change(&kb, vocab::template_iri(&a.id).str_value());
        assert_eq!(
            kb.storage_pressures()[0].wal_records,
            pressure + 1,
            "{what}: one record"
        );
        (sig, before, view(&kb, sig), start)
    };
    assert_ne!(before, after, "{what} must show");
    let wal = newest_wal(dir.path());
    let log = std::fs::read(&wal).unwrap();
    assert!(log.len() > start + 100, "{what} reached the log");
    for cut in start..=log.len() {
        std::fs::write(&wal, &log[..cut]).unwrap();
        let got = view(&open(), sig);
        let want = if cut == log.len() { &after } else { &before };
        assert_eq!(&got, want, "{what}: log cut at byte {cut} of {}", log.len());
    }
}

#[test]
fn a_retraction_cut_at_every_byte_reopens_to_the_image_before_it() {
    cut_at_every_byte_of("retraction", |kb, iri| {
        assert!(kb.remove_template(iri));
    });
}

#[test]
fn a_refinement_cut_at_every_byte_reopens_to_the_image_before_it() {
    let (db, plan) = setup();
    let observations = segment_pop_checks(&db, &plan, plan.root())
        .iter()
        .map(|c| PopObservation {
            pop_type: c.pop_type.to_string(),
            cards: vec![(c.est_card * 3.0, f64::INFINITY)],
            scan: c.scan,
            scan_band: f64::INFINITY,
        })
        .collect();
    let refinement = TemplateRefinement {
        observations,
        narrows: vec![],
    };
    cut_at_every_byte_of("refinement", |kb, iri| {
        assert!(kb.refine_template_stats(iri, &refinement).changed);
    });
}
