//! # galo-rdf
//!
//! The knowledge-base substrate of the GALO reproduction: RDF triple
//! storage behind the [`TripleStore`] trait, N-Triples persistence, a
//! SPARQL subset (basic graph patterns, FILTER expressions, property
//! paths, `INSERT DATA`/`DELETE WHERE`) and a Fuseki-like concurrent
//! endpoint ([`FusekiLite`]).
//!
//! This replaces Apache Jena + Fuseki in the paper's architecture; see
//! DESIGN.md for the substitution argument.
//!
//! ## The `TripleStore` contract
//!
//! [`TripleStore`] is the swappable storage abstraction every higher
//! layer compiles against — the SPARQL evaluator is generic over it and
//! [`FusekiLite`] holds a `Box<dyn TripleStore + Send>`. A backend provides:
//!
//! * **term interning** (`intern` / `term_id` / `resolve`) with ids that
//!   stay stable for the store's lifetime;
//! * **set-semantics mutation** (`insert_ids` / `remove_ids` / `clear`)
//!   over the default graph;
//! * **triple-pattern access** (`scan` / `count`) where `None` is a
//!   wildcard, with deterministic result order and a `count` that does
//!   not materialize (the evaluator's join-ordering heuristic calls it
//!   per pattern);
//! * **named graphs** (`graph_names` / `insert_ids_in` / `scan_in`) for
//!   tagging triple sets — e.g. one graph per learned workload — without
//!   polluting the default graph that pattern matching runs against.
//!
//! Three backends ship: [`IndexedStore`] (the default; two ordered
//! permutations of the triples, SPO and POS, answer every pattern that
//! binds its subject or predicate with one range, and the object-only
//! pattern, which only tests use, with a filtered pass), [`ScanStore`]
//! (the naive linear-scan reference the proptests differential-test
//! against), and [`DurableStore`] (the persistent backend: an
//! append-only write-ahead log of checksummed [quad blocks](block), one
//! record per commit, plus periodic snapshots of the whole image as one
//! block, around an inner `IndexedStore`, with crash recovery in
//! [`DurableStore::open`] — see the [`persist`] module docs for the
//! on-disk layout). Log records,
//! snapshots and [`wire`] frames share one checksum, `checksum64`: four
//! lanes of multiply-xor over 8-byte words. [`ShardedStore`] partitions any
//! of them N ways and meets the same contract through its all-shard read
//! and write sessions (see the [`shard`] module docs).

pub mod block;
mod checksum;
mod fnv;
pub mod ntriples;
pub mod persist;
pub mod policy;
pub mod server;
pub mod shard;
pub mod sparql;
pub mod store;
pub mod term;
pub mod wire;

pub use block::{Applied, BlockError, BlockOp, BlockWriter, QuadBlock, QuadIx, Record};
pub use ntriples::{from_ntriples, load_ntriples, parse_ntriples, to_ntriples, NtParseError, Quad};
pub use persist::{decode_snapshot, snapshot_bytes, DurableOptions, DurableStore, ScratchDir};
pub use policy::{CompactionPolicy, CompactionTarget, Compactor, CompactorStats};
pub use server::{FusekiLite, MutationScope, ServerError};
pub use shard::{ShardRouter, ShardStats, ShardedStore, TemplateRouter};
pub use sparql::{
    apply_update, evaluate, evaluate_seeded, parse_select, parse_update, projected_vars, CmpOp,
    Expr, PathPattern, ResultSet, SelectQuery, SparqlParseError, TermPattern, TriplePattern,
    Update,
};
pub use store::{IndexedStore, ReadOnlyReplica, ScanStore, StoragePressure, Triple, TripleStore};
pub use term::{Interner, Literal, Term, TermDictionary, TermId};
pub use wire::{decode_frame, encode_frame, Frame, FrameError, FramePayload, FRAME_MAGIC};

#[cfg(test)]
mod proptests;
