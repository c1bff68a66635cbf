//! One construction path for the whole stack.
//!
//! [`KbBuilder`] is the one way to stand up a knowledge base over
//! anything but the default in-memory store. Every store it builds is a
//! sharded one: pick a shard count (one by default) and, for a store on
//! disk, a durable directory; tune durability
//! ([`fsync`](KbBuilder::fsync), auto-compaction), feedback and matching
//! options; then materialize whichever layer you need:
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
//! assert_eq!(galo.kb.shard_stats().unwrap().len(), 4);
//! ```

use std::path::PathBuf;

use galo_rdf::{
    CompactionPolicy, DurableOptions, FusekiLite, ServerError, ShardedStore, TemplateRouter,
};

use crate::feedback::FeedbackOptions;
use crate::galo::Galo;
use crate::kb::KnowledgeBase;
use crate::matching::MatchConfig;

/// Builder for every store shape of the GALO stack (see the
/// [module docs](self)).
#[derive(Default)]
pub struct KbBuilder {
    shards: Option<usize>,
    durable_dir: Option<PathBuf>,
    durable: DurableOptions,
    compaction: Option<CompactionPolicy>,
    feedback: FeedbackOptions,
    match_cfg: MatchConfig,
}

impl KbBuilder {
    /// Start from the defaults: an in-memory store of one shard, default
    /// feedback and match options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shard the store `shards` ways (template-affine placement, one
    /// lock per shard; one shard unless set). Combines with
    /// [`durable_dir`](Self::durable_dir) for the production shape: one
    /// WAL+snapshot directory per shard, recovered and folded
    /// independently. A durable directory is reopened with the shard
    /// count it was created with, or refused.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Persist the store under `dir`: `sharded.meta` plus one
    /// `shard-NNNN/` WAL+snapshot directory per shard, recovered on open.
    /// The signature index is rebuilt from the recovered triples by
    /// [`build_kb`](Self::build_kb).
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
    /// [`durable_dir`](Self::durable_dir); harmless over an in-memory
    /// store, which reports zero pressure. The synchronous driver
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

    /// Materialize the raw SPARQL endpoint this configuration describes.
    pub fn build_server(self) -> Result<FusekiLite, ServerError> {
        let shards = self.shards.unwrap_or(1);
        let store = match self.durable_dir {
            Some(dir) => ShardedStore::open_durable_with(
                dir,
                shards,
                self.durable,
                Box::<TemplateRouter>::default(),
            )?,
            None => ShardedStore::new(shards),
        };
        let server = FusekiLite::from_sharded(store);
        if let Some(policy) = self.compaction {
            server.compaction_policy(policy);
        }
        Ok(server)
    }

    /// Materialize a [`KnowledgeBase`]: the endpoint from
    /// [`build_server`](Self::build_server) plus a feedback collector,
    /// with the signature index rebuilt whenever the store can already
    /// hold triples (durable recovery).
    pub fn build_kb(self) -> Result<KnowledgeBase, ServerError> {
        let preloaded = self.durable_dir.is_some();
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
        let stats = kb.shard_stats().expect("always sharded");
        assert_eq!(stats.len(), 1, "one shard by default");
        assert_eq!(kb.storage_pressures(), vec![Default::default()]);
        assert_eq!(kb.template_count(), 0);
    }

    #[test]
    fn sharded_build_routes_and_reports_stats() {
        let kb = KbBuilder::new().shards(3).build_kb().unwrap();
        let stats = kb.shard_stats().unwrap();
        assert_eq!(stats.len(), 3);
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
            .near_miss_factor(2.5)
            .build()
            .unwrap();
        let galo = KbBuilder::new().match_config(cfg).build_galo().unwrap();
        assert_eq!(galo.match_cfg.near_miss_factor, 2.5);
    }
}
