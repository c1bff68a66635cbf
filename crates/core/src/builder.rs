//! One construction path for the whole stack.
//!
//! [`KbBuilder`] is the one validated way to stand up a knowledge base
//! over anything but the default in-memory store: pick a backend *or*
//! a shard count *or* a durable directory (in any legal combination),
//! tune durability ([`fsync`](KbBuilder::fsync), auto-compaction),
//! routing, feedback and matching options, then materialize whichever
//! layer you need:
//!
//! - [`build_server`](KbBuilder::build_server) — the raw SPARQL endpoint,
//! - [`build_kb`](KbBuilder::build_kb) — a [`KnowledgeBase`] (signature
//!   index rebuilt when the store can hold pre-existing triples),
//! - [`build_galo`](KbBuilder::build_galo) — the full [`Galo`] facade
//!   with its match configuration.
//!
//! ```
//! use galo_core::KbBuilder;
//!
//! let galo = KbBuilder::new().shards(4).build_galo().unwrap();
//! assert!(galo.kb.shard_stats().is_some());
//! ```

use std::path::PathBuf;

use galo_rdf::{
    CompactionPolicy, DurableOptions, FusekiLite, ServerError, ShardRouter, ShardedStore,
    TripleStore,
};

use crate::feedback::FeedbackOptions;
use crate::galo::Galo;
use crate::kb::KnowledgeBase;
use crate::matching::MatchConfig;

/// Builder for every backend shape of the GALO stack. See the
/// [module docs](self) for the legal combinations.
#[derive(Default)]
pub struct KbBuilder {
    backend: Option<Box<dyn TripleStore + Send>>,
    shards: Option<usize>,
    router: Option<Box<dyn ShardRouter>>,
    durable_dir: Option<PathBuf>,
    durable: DurableOptions,
    compaction: Option<CompactionPolicy>,
    feedback: FeedbackOptions,
    match_cfg: MatchConfig,
}

impl KbBuilder {
    /// Start from the defaults: an in-memory hash-indexed single store,
    /// default feedback and match options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a caller-supplied single-store backend. Mutually exclusive
    /// with [`shards`](Self::shards) and
    /// [`durable_dir`](Self::durable_dir) — those describe stores the
    /// builder constructs itself.
    pub fn backend(mut self, backend: Box<dyn TripleStore + Send>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Shard the store `shards` ways (template-affine placement, one
    /// lock per shard). Combines with [`durable_dir`](Self::durable_dir)
    /// for the production shape: one WAL+snapshot directory per shard,
    /// recovered and folded independently.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Routing policy for a sharded store (default:
    /// [`TemplateRouter`](galo_rdf::TemplateRouter), template-affine).
    /// Only meaningful together with [`shards`](Self::shards).
    pub fn router(mut self, router: Box<dyn ShardRouter>) -> Self {
        self.router = Some(router);
        self
    }

    /// Persist the store under `dir` (WAL + snapshots, recovered on
    /// open). The signature index is rebuilt from the recovered triples
    /// by [`build_kb`](Self::build_kb).
    pub fn durable_dir(mut self, dir: impl AsRef<std::path::Path>) -> Self {
        self.durable_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// `fsync` the write-ahead log after every committed record
    /// (survives power loss, at a heavy per-write cost). Off by
    /// default: commits are still flushed to the OS and survive process
    /// death.
    pub fn fsync(mut self, fsync_each_record: bool) -> Self {
        self.durable.fsync_each_record = fsync_each_record;
        self
    }

    /// Full durability options (fsync policy plus auto-compaction
    /// threshold) for a [`durable_dir`](Self::durable_dir) store.
    pub fn durable_options(mut self, options: DurableOptions) -> Self {
        self.durable = options;
        self
    }

    /// Run a background [`Compactor`](galo_rdf::Compactor) over the
    /// built store: WAL folding moves off the write path onto the
    /// threaded driver of the one compaction decision (see
    /// [`CompactionPolicy`]). Most useful together with
    /// [`durable_dir`](Self::durable_dir); harmless over in-memory
    /// backends, which report zero pressure. The synchronous driver
    /// (`auto_compact_records` in
    /// [`durable_options`](Self::durable_options)) stays off unless set.
    pub fn compaction_policy(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = Some(policy);
        self
    }

    /// Tuning knobs of the runtime-feedback loop (decay, batch size,
    /// narrowing threshold, buffer cap).
    pub fn feedback(mut self, options: FeedbackOptions) -> Self {
        self.feedback = options;
        self
    }

    /// Match configuration for [`build_galo`](Self::build_galo) (use
    /// [`MatchConfig::builder`] for the validated path).
    pub fn match_config(mut self, cfg: MatchConfig) -> Self {
        self.match_cfg = cfg;
        self
    }

    fn invalid(what: &str) -> ServerError {
        ServerError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("invalid KbBuilder configuration: {what}"),
        ))
    }

    /// Materialize the raw SPARQL endpoint this configuration describes.
    pub fn build_server(self) -> Result<FusekiLite, ServerError> {
        let KbBuilder {
            backend,
            shards,
            router,
            durable_dir,
            durable,
            compaction,
            ..
        } = self;
        let server = (|| {
            if let Some(backend) = backend {
                if shards.is_some() || durable_dir.is_some() || router.is_some() {
                    return Err(Self::invalid(
                        "an explicit backend cannot be combined with shards, a \
                         router, or a durable directory",
                    ));
                }
                return Ok(FusekiLite::with_backend(backend));
            }
            if router.is_some() && shards.is_none() {
                return Err(Self::invalid("a router requires a shard count"));
            }
            match (shards, durable_dir) {
                (Some(n), Some(dir)) => FusekiLite::open_sharded_durable_with(
                    dir,
                    n,
                    durable,
                    router.unwrap_or_else(|| Box::new(galo_rdf::TemplateRouter::default())),
                ),
                (Some(n), None) => Ok(FusekiLite::from_sharded(match router {
                    Some(r) => ShardedStore::with_router(n, r),
                    None => ShardedStore::new(n),
                })),
                (None, Some(dir)) => FusekiLite::open_durable_with(dir, durable),
                (None, None) => Ok(FusekiLite::new()),
            }
        })()?;
        if let Some(policy) = compaction {
            server.compaction_policy(policy);
        }
        Ok(server)
    }

    /// Materialize a [`KnowledgeBase`]: the endpoint from
    /// [`build_server`](Self::build_server) plus a feedback collector,
    /// with the signature index rebuilt whenever the store can already
    /// hold triples (durable recovery or a caller-supplied backend).
    pub fn build_kb(self) -> Result<KnowledgeBase, ServerError> {
        let preloaded = self.durable_dir.is_some() || self.backend.is_some();
        let feedback = self.feedback.clone();
        let server = self.build_server()?;
        let kb = KnowledgeBase::from_server(server, feedback);
        if preloaded {
            kb.reindex();
        }
        Ok(kb)
    }

    /// Materialize the full [`Galo`] facade (knowledge base + match
    /// configuration).
    pub fn build_galo(self) -> Result<Galo, ServerError> {
        let match_cfg = self.match_cfg.clone();
        let kb = self.build_kb()?;
        Ok(Galo { kb, match_cfg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_rdf::{ScratchDir, Term};

    #[test]
    fn default_build_is_in_memory_single_store() {
        let kb = KbBuilder::new().build_kb().unwrap();
        assert!(kb.shard_stats().is_none());
        assert_eq!(kb.template_count(), 0);
    }

    #[test]
    fn sharded_build_routes_and_reports_stats() {
        let kb = KbBuilder::new().shards(3).build_kb().unwrap();
        let stats = kb.shard_stats().unwrap();
        assert_eq!(stats.len(), 3);
    }

    #[test]
    fn explicit_backend_conflicts_are_loud() {
        let err = KbBuilder::new()
            .backend(Box::<galo_rdf::IndexedStore>::default())
            .shards(2)
            .build_server()
            .unwrap_err();
        assert!(err.to_string().contains("invalid KbBuilder configuration"));
        let err = KbBuilder::new()
            .router(Box::new(galo_rdf::TemplateRouter::default()))
            .build_server()
            .unwrap_err();
        assert!(err.to_string().contains("router requires a shard count"));
    }

    #[test]
    fn durable_build_persists_and_reindexes_on_reopen() {
        let dir = ScratchDir::new("kbbuilder-durable");
        {
            let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
            let inserted = kb.server().insert_triples(vec![(
                Term::iri("http://x/s"),
                Term::iri("http://x/p"),
                Term::lit("v"),
            )]);
            assert_eq!(inserted, 1);
        }
        let kb = KbBuilder::new().durable_dir(dir.path()).build_kb().unwrap();
        assert_eq!(kb.server().len(), 1);
    }

    #[test]
    fn compaction_policy_installs_a_background_compactor() {
        let dir = ScratchDir::new("kbbuilder-policy");
        let policy = galo_rdf::CompactionPolicy {
            wal_records: 16,
            poll_interval: std::time::Duration::from_millis(1),
            idle_divisor: 0,
            ..Default::default()
        };
        let kb = KbBuilder::new()
            .durable_dir(dir.path())
            .shards(2)
            .compaction_policy(policy)
            .build_kb()
            .unwrap();
        assert!(kb.compactor_stats().is_some(), "compactor installed");
        for i in 0..64 {
            kb.server().insert_triples(vec![(
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::lit("v"),
            )]);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while kb.storage_pressures().iter().all(|p| p.compactions == 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "background compactor never folded the WAL"
            );
            std::thread::yield_now();
        }
        assert!(kb
            .storage_pressures()
            .iter()
            .all(|p| p.compactions_failed == 0));
        // An in-memory build without a policy has no compactor.
        let plain = KbBuilder::new().build_kb().unwrap();
        assert!(plain.compactor_stats().is_none());
        assert_eq!(plain.storage_pressures(), vec![Default::default()]);
    }

    #[test]
    fn build_galo_carries_the_match_config() {
        let cfg = crate::MatchConfig::builder()
            .range_margin(2.5)
            .build()
            .unwrap();
        let galo = KbBuilder::new().match_config(cfg).build_galo().unwrap();
        assert_eq!(galo.match_cfg.range_margin, 2.5);
    }
}
