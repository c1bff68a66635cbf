//! A tour of the knowledge base internals: how a plan becomes RDF, what a
//! problem-pattern template looks like as triples, and how the matching
//! engine's generated SPARQL (paper Figure 6) finds it.
//!
//! Run with: `cargo run --release --example knowledge_base_tour`

use galo_core::{
    diagnose, match_plan, qgm_to_rdf, segment_to_sparql, Galo, LearningConfig, MatchConfig,
};
use galo_optimizer::Optimizer;
use galo_rdf::{IndexedStore, TripleStore};

fn main() {
    // The Figure 4 scenario (flooding) keeps the output readable.
    let (name, workload) = galo_bench::problem_queries().remove(1);
    println!("scenario: {name}\n");

    let optimizer = Optimizer::new(&workload.db);
    let plan = optimizer.optimize(&workload.queries[0]).expect("plans");
    println!("the optimizer's QGM:\n{}", plan.render(&workload.db));

    // 1. QGM -> RDF (the transformation engine, paper §3.1).
    let triples = qgm_to_rdf(&workload.db, &plan);
    println!("as RDF ({} triples); a sample:", triples.len());
    let mut store = IndexedStore::new();
    for (s, p, o) in triples {
        store.insert(s, p, o);
    }
    for (i, (s, p, o)) in store.iter_terms().enumerate() {
        if i >= 8 {
            println!("  ...");
            break;
        }
        println!("  {s} {p} {o} .");
    }

    // 2. Learn a template, then show the generated SPARQL that finds it.
    let galo = Galo::new();
    let report = galo.learn(&workload, &LearningConfig::default());
    println!(
        "\nlearned {} template(s); knowledge base now holds {} triples",
        report.templates_learned,
        galo.kb.server().len()
    );

    let segment = galo_qgm::segments(&plan, 4)
        .first()
        .map(|s| s.root)
        .unwrap_or_else(|| plan.root());
    let sparql = segment_to_sparql(&workload.db, &plan, segment, true);
    println!("\ngenerated SPARQL for the first segment (paper Figure 6):\n{sparql}");

    // The online matcher never evaluates that text: it prunes through the
    // signature index and matches an admitted template on its index row.
    // The oracle and `diagnose` evaluate the text, parsed, as the probe.
    let probe = galo_core::segment_to_probe(&workload.db, &plan, segment, true);
    println!(
        "\ncompiled probe: {} patterns, {} filters, signature {:016x}, over tables {:?}",
        probe.query.patterns.len(),
        probe.query.filters.len(),
        probe.signature,
        probe.table_names
    );

    let matched = match_plan(&workload.db, &galo.kb, &plan, &MatchConfig::default());
    println!(
        "\nmatching: {} probe(s) executed, {} segment(s) pruned by signature, \
         {} rewrite(s) found in {:.2} ms",
        matched.probes_executed,
        matched.probes_pruned,
        matched.rewrites.len(),
        matched.match_ms
    );

    // Problem determination (paper Goal 1): `diagnose` reports the exact
    // matches and, through the probe with its range constraints dropped,
    // the templates whose structure alone matches.
    let diagnosis = diagnose(&workload.db, &galo.kb, &plan, &MatchConfig::default());
    println!(
        "diagnose: {} known issue(s), {} near miss(es), {} rejected candidate(s)",
        diagnosis.known_issues.len(),
        diagnosis.near_misses.len(),
        diagnosis.rejected.len()
    );
    for r in &matched.rewrites {
        println!(
            "\ntemplate {} (learned on '{}') instantiated as:\n{}",
            r.template_iri,
            r.source_workload,
            galo_qgm::GuidelineDoc::new(vec![r.guideline.clone()]).to_xml()
        );
    }
}
