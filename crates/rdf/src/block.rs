//! Quad blocks: the one binary encoding of a batch of statements.
//!
//! A template is ~150 statements over ~100 distinct terms. As text every
//! hop — the `Publish` frame, the write-ahead log, the replication feed —
//! rendered each statement's four terms again and the far side parsed them
//! again. A [`QuadBlock`] names each distinct term once, in a local
//! dictionary, and states the batch as operations over dictionary
//! indices; its encoding is the payload of a `Publish` and a `Mutation`
//! frame ([`crate::wire`]), the body of a log record and the body of a
//! snapshot ([`crate::persist`]), so a batch is encoded once where it is
//! born and those bytes are what every later hop checksums, stores and
//! forwards.
//!
//! ```text
//! block := n_terms u32 | term × n_terms | n_ops u32 | op × n_ops
//! term  := tag u8 (0 IRI, 1 literal, 2 blank node) | len u32 | len bytes of UTF-8
//! op    := kind u8 (0 insert, 1 remove, 2 clear) | s | p | o | g
//! ```
//!
//! All integers are little-endian. `s p o g` are dictionary indices, each
//! as wide as the dictionary needs — one byte below 255 terms, two below
//! 65,535, else four — and the all-ones value of that width is the
//! sentinel: `g` carries it for a default-graph statement, and a clear
//! carries it in all four places. Nothing in the format is optional or
//! padded, so a block has exactly one encoding and re-encoding a decoded
//! block gives back its bytes. [`QuadBlock::decode`] checks every count
//! against the bytes that are left before it reserves anything, and
//! rejects an index outside the dictionary, an unknown tag or kind, text
//! that is not UTF-8 and trailing bytes. The block carries no checksum of
//! its own; the frame, the log record and the snapshot around it do.
//!
//! One loop turns a batch into mutations of a [`TripleStore`]:
//! [`QuadBlock::apply_to`] runs it over a block the caller keeps,
//! [`QuadBlock::apply_into`] over one it hands over.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::ntriples::Quad;
use crate::store::TripleStore;
use crate::term::{Term, TermId, TermIndex};

/// One statement-level operation with its terms owned: what the knowledge
/// base's mutators and the endpoint's writes build their blocks from. A
/// batch of them is one block ([`QuadBlock::of_records`] borrows their
/// terms, [`QuadBlock::from_records`] takes them).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Assert one statement (named-graph tag when the fourth term is set).
    Insert(Term, Term, Term, Option<Term>),
    /// Retract one statement.
    Remove(Term, Term, Term, Option<Term>),
    /// Drop the whole image.
    Clear,
}

impl From<Quad> for Record {
    fn from((s, p, o, graph): Quad) -> Self {
        Record::Insert(s, p, o, graph)
    }
}

/// Dictionary indices of one statement: subject, predicate, object, and
/// the named graph (`None` = the default graph).
pub type QuadIx = (u32, u32, u32, Option<u32>);

/// One operation of a block, over dictionary indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOp {
    /// Assert one statement.
    Insert(QuadIx),
    /// Retract one statement.
    Remove(QuadIx),
    /// Drop the whole image, named graphs included.
    Clear,
}

/// A rejected [`QuadBlock::decode`]: what was wrong with the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockError(pub &'static str);

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad quad block: {}", self.0)
    }
}

impl std::error::Error for BlockError {}

/// A batch of statements: a dictionary of terms and the operations over
/// it, in order. `T` is how the block holds its terms — owned ([`Term`],
/// what [`decode`](Self::decode) yields), borrowed from the caller's
/// quads, records or store (`&Term`), or, once a store has
/// [taken them](QuadBlock::apply_into), as that store's ids. The blocks
/// built to be encoded name each distinct term once.
///
/// Every index of every operation is inside the dictionary; the
/// constructors guarantee it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadBlock<T = Term> {
    terms: Vec<T>,
    ops: Vec<BlockOp>,
}

/// Gathers a block, giving each distinct key one dictionary slot in the
/// order keys are first seen. The key is whatever already identifies a
/// term where the batch comes from: a reference to the term itself for
/// quads and records (hashed with a random key, as terms arrive from
/// outside the program), its interned id for statements read out of a
/// store (hashed by [`IdHash`]).
pub(crate) struct BlockBuilder<K, S> {
    index: HashMap<K, u32, S>,
    ops: Vec<BlockOp>,
}

/// The hasher of a store's term ids: one multiply. The ids are dense and
/// issued by the store, never chosen from outside the program, so a
/// keyed hasher buys them nothing.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`IdHasher`] for a `HashMap`.
pub(crate) type IdHash = std::hash::BuildHasherDefault<IdHasher>;

impl<K: Hash + Eq, S: BuildHasher + Default> BlockBuilder<K, S> {
    /// A builder for about `ops` operations. A batch of template-shaped
    /// statements names about as many distinct terms as it has
    /// statements, so that is what the dictionary is sized for: growing
    /// it re-hashes every key it holds.
    pub(crate) fn with_capacity(ops: usize) -> Self {
        BlockBuilder {
            index: HashMap::with_capacity_and_hasher(ops, S::default()),
            ops: Vec::with_capacity(ops),
        }
    }

    /// The dictionary index of `key`: the next free one when the key is
    /// new.
    fn slot(&mut self, key: K) -> u32 {
        let next = u32::try_from(self.index.len()).expect("a block holds fewer than 2^32 terms");
        *self.index.entry(key).or_insert(next)
    }

    /// The dictionary indices of one statement's keys.
    pub(crate) fn quad(&mut self, s: K, p: K, o: K, g: Option<K>) -> QuadIx {
        (
            self.slot(s),
            self.slot(p),
            self.slot(o),
            g.map(|g| self.slot(g)),
        )
    }

    pub(crate) fn push(&mut self, op: BlockOp) {
        self.ops.push(op);
    }

    /// The block, each key turned into the term it stands for.
    pub(crate) fn finish<T>(self, mut term_of: impl FnMut(K) -> T) -> QuadBlock<T> {
        let mut terms: Vec<Option<T>> = std::iter::repeat_with(|| None)
            .take(self.index.len())
            .collect();
        for (key, ix) in self.index {
            terms[ix as usize] = Some(term_of(key));
        }
        QuadBlock {
            terms: terms
                .into_iter()
                .map(|term| term.expect("every index below the count was handed out"))
                .collect(),
            ops: self.ops,
        }
    }
}

/// Writes a block of inserts term by term, for a serializer that makes
/// the terms as it goes: [`term`](Self::term) files each one in the
/// dictionary, hashing it once and keeping it once, and hands back its
/// index; a serializer that knows a term repeats keeps that index instead
/// of making the term again. Handed each statement's terms in `s p o g`
/// order, the writer builds the dictionary [`QuadBlock::of_inserts`] builds
/// for the same statements — each distinct term once, in the order terms
/// first appear — so the two blocks encode to the same bytes.
#[derive(Debug)]
pub struct BlockWriter {
    terms: Vec<Term>,
    index: TermIndex,
    hasher: RandomState,
    ops: Vec<BlockOp>,
}

impl BlockWriter {
    /// A writer for about `ops` inserts over as many terms.
    pub fn with_capacity(ops: usize) -> Self {
        BlockWriter {
            terms: Vec::with_capacity(ops),
            index: TermIndex::default(),
            hasher: RandomState::new(),
            ops: Vec::with_capacity(ops),
        }
    }

    /// The dictionary index of `term`: the one it already has, or the
    /// next one when it is new.
    pub fn term(&mut self, term: Term) -> u32 {
        let hash = self.hasher.hash_one(&term);
        let terms = &self.terms;
        if let Some(ix) = self.index.find(hash, |ix| terms[ix.0 as usize] == term) {
            return ix.0;
        }
        let ix = u32::try_from(terms.len()).expect("a block holds fewer than 2^32 terms");
        self.terms.push(term);
        self.index.insert(hash, TermId(ix));
        ix
    }

    /// Append an insert over indices [`term`](Self::term) handed out.
    pub fn insert(&mut self, quad: QuadIx) {
        let (s, p, o, g) = quad;
        let known = |ix: u32| (ix as usize) < self.terms.len();
        assert!(
            [s, p, o].into_iter().chain(g).all(known),
            "an insert names a term the writer handed out"
        );
        self.ops.push(BlockOp::Insert(quad));
    }

    /// The block, its terms handed over.
    pub fn finish(self) -> QuadBlock {
        QuadBlock {
            terms: self.terms,
            ops: self.ops,
        }
    }
}

impl<'a> QuadBlock<&'a Term> {
    /// `quads` as one block of inserts, borrowing their terms.
    pub fn of_inserts(quads: &'a [Quad]) -> Self {
        let mut b = BlockBuilder::<_, RandomState>::with_capacity(quads.len());
        for (s, p, o, g) in quads {
            let quad = b.quad(s, p, o, g.as_ref());
            b.push(BlockOp::Insert(quad));
        }
        b.finish(|term| term)
    }

    /// `records` as one block, borrowing their terms.
    pub fn of_records(records: &'a [Record]) -> Self {
        let mut b = BlockBuilder::<_, RandomState>::with_capacity(records.len());
        for record in records {
            let op = match record {
                Record::Insert(s, p, o, g) => BlockOp::Insert(b.quad(s, p, o, g.as_ref())),
                Record::Remove(s, p, o, g) => BlockOp::Remove(b.quad(s, p, o, g.as_ref())),
                Record::Clear => BlockOp::Clear,
            };
            b.push(op);
        }
        b.finish(|term| term)
    }

    /// The block that turns any image into `store`'s: a clear, then one
    /// insert per statement — the default graph in scan order, then the
    /// named graphs in name order. Its encoding is the body of a snapshot
    /// ([`crate::persist::snapshot_bytes`]), on disk and in a replica's
    /// cold-start transfer.
    pub fn replacing_with<S: TripleStore + ?Sized>(store: &'a S) -> Self {
        let mut b = BlockBuilder::<_, IdHash>::with_capacity(store.len() + 1);
        b.push(BlockOp::Clear);
        for (s, p, o) in store.scan(None, None, None) {
            let quad = b.quad(s, p, o, None);
            b.push(BlockOp::Insert(quad));
        }
        let mut graphs = store.graph_ids();
        graphs.sort_by_cached_key(|&g| store.resolve(g).to_string());
        for g in graphs {
            for (s, p, o) in store.scan_in(g, None, None, None) {
                let quad = b.quad(s, p, o, Some(g));
                b.push(BlockOp::Insert(quad));
            }
        }
        b.finish(|id| store.resolve(id))
    }
}

impl QuadBlock<Term> {
    /// The block that turns any image into `quads`: a clear, then one
    /// insert per quad, their terms handed over as by
    /// [`from_records`](Self::from_records). As one block — one commit —
    /// the replacement is on disk whole or not at all; journaled on its
    /// own the clear would be durable first, and a crash mid-import would
    /// reopen an empty dataset.
    pub fn replacing_with_quads(quads: Vec<Quad>) -> Self {
        Self::from_records(
            std::iter::once(Record::Clear).chain(quads.into_iter().map(Record::from)),
        )
    }

    /// `records` as one block that owns their terms — a block to be
    /// [applied](Self::apply_into), not sent: every occurrence of a term
    /// gets a slot of its own. Nothing is hashed or compared here, because
    /// the store's interner is about to do exactly that, and a repeat is
    /// dropped the moment it finds it.
    pub fn from_records(records: impl IntoIterator<Item = Record>) -> Self {
        let mut terms = Vec::new();
        let mut quad = |s, p, o, g: Option<Term>| -> QuadIx {
            let mut slot = |term| {
                terms.push(term);
                u32::try_from(terms.len() - 1).expect("a block holds fewer than 2^32 terms")
            };
            (slot(s), slot(p), slot(o), g.map(slot))
        };
        let ops = records
            .into_iter()
            .map(|record| match record {
                Record::Insert(s, p, o, g) => BlockOp::Insert(quad(s, p, o, g)),
                Record::Remove(s, p, o, g) => BlockOp::Remove(quad(s, p, o, g)),
                Record::Clear => BlockOp::Clear,
            })
            .collect();
        QuadBlock { terms, ops }
    }
}

/// Bytes of one dictionary index in a block of `n_terms` terms; the
/// all-ones value of the width is never an index, it is the sentinel.
fn index_width(n_terms: usize) -> usize {
    match n_terms {
        0..=0xFE => 1,
        0xFF..=0xFFFE => 2,
        _ => 4,
    }
}

fn sentinel(width: usize) -> u32 {
    u32::MAX >> (32 - 8 * width)
}

const KIND_INSERT: u8 = 0;
const KIND_REMOVE: u8 = 1;
const KIND_CLEAR: u8 = 2;

/// Encoded size of the shortest term: a tag and a length.
const MIN_TERM_LEN: usize = 5;

impl<T> QuadBlock<T> {
    /// The operations, in order.
    pub fn ops(&self) -> &[BlockOp] {
        &self.ops
    }
}

impl QuadBlock<Option<TermId>> {
    /// The term that was at dictionary index `ix`, read back from the
    /// `store` that took it. Every index of an operation that took effect
    /// reads back; one no operation needed, or that only removes looked
    /// up in vain, has no id and panics.
    pub fn term_in<'s, S: TripleStore + ?Sized>(&self, store: &'s S, ix: u32) -> &'s Term {
        let id = self.terms[ix as usize];
        store.resolve(id.expect("an operation that took effect knew its terms"))
    }
}

impl<T: Borrow<Term>> QuadBlock<T> {
    /// The dictionary: each distinct term of the batch, once.
    pub fn terms(&self) -> impl ExactSizeIterator<Item = &Term> {
        self.terms.iter().map(Borrow::borrow)
    }

    /// The term at dictionary index `ix` (every index an operation
    /// carries is valid).
    pub fn term(&self, ix: u32) -> &Term {
        self.terms[ix as usize].borrow()
    }

    /// Append the block's encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let width = index_width(self.terms.len());
        put_u32(buf, self.terms.len() as u32);
        for term in self.terms() {
            put_term(buf, term);
        }
        let n_ops = u32::try_from(self.ops.len()).expect("a block holds fewer than 2^32 ops");
        put_u32(buf, n_ops);
        buf.reserve(self.ops.len() * (1 + 4 * width));
        let none = sentinel(width);
        let mut put_op = |kind: u8, fields: [u32; 4]| {
            buf.push(kind);
            for field in fields {
                buf.extend_from_slice(&field.to_le_bytes()[..width]);
            }
        };
        for op in &self.ops {
            match *op {
                BlockOp::Insert((s, p, o, g)) => put_op(KIND_INSERT, [s, p, o, g.unwrap_or(none)]),
                BlockOp::Remove((s, p, o, g)) => put_op(KIND_REMOVE, [s, p, o, g.unwrap_or(none)]),
                BlockOp::Clear => put_op(KIND_CLEAR, [none; 4]),
            }
        }
    }

    /// The statements the block's inserts state, as quads, in order.
    pub fn inserted_quads(&self) -> Vec<Quad> {
        let term = |ix| self.term(ix).clone();
        let quads = self.ops.iter().filter_map(|op| match *op {
            BlockOp::Insert((s, p, o, g)) => Some((term(s), term(p), term(o), g.map(term))),
            BlockOp::Remove(_) | BlockOp::Clear => None,
        });
        quads.collect()
    }

    /// The block's encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Apply the block to `store`, one operation after the other, and
    /// say for each whether it changed anything (set semantics: a
    /// duplicate insert, an absent remove and a clear of an empty store do
    /// not) — and, beside that, give the block back over the store's ids
    /// ([`term_in`](QuadBlock::term_in) reads a statement as the store now
    /// holds it).
    ///
    /// Each dictionary term is looked up in the store's interner once,
    /// the first time an operation needs it, and cloned only if an insert
    /// finds the interner has never seen it; a remove interns nothing.
    /// The block keeps its terms: it is the feed's, or about to be logged.
    /// A caller that does not need them afterwards hands the block over
    /// with [`apply_into`](QuadBlock::apply_into).
    pub fn apply_to<S: TripleStore + ?Sized>(&self, store: &mut S) -> Applied {
        let (changed, ids) = apply(&mut &self.terms[..], &self.ops, store);
        let ops = self.ops.clone();
        let block = QuadBlock { terms: ids, ops };
        Applied { changed, block }
    }
}

/// What applying a block comes back with.
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// Per operation, whether it changed anything.
    pub changed: Vec<bool>,
    /// The block over the ids of the store it was applied to.
    pub block: QuadBlock<Option<TermId>>,
}

impl Applied {
    /// How many operations changed anything.
    pub fn effective(&self) -> usize {
        self.changed.iter().filter(|&&changed| changed).count()
    }

    /// How many default-graph inserts were new: what an import reports.
    pub fn new_triples(&self) -> usize {
        let ops = self.block.ops().iter().zip(&self.changed);
        ops.filter(|&(op, &new)| new && matches!(op, BlockOp::Insert((.., None))))
            .count()
    }
}

/// Where the apply loop gets a block's terms from.
trait Dictionary {
    fn len(&self) -> usize;

    fn term(&self, ix: u32) -> &Term;

    /// Intern the term at `ix` in `store`; asked at most once per index.
    fn intern<S: TripleStore + ?Sized>(&mut self, ix: u32, store: &mut S) -> TermId;
}

/// A borrowed dictionary keeps its terms: the interner gets a clone, and
/// only of a term it has never seen.
impl<T: Borrow<Term>> Dictionary for &[T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn term(&self, ix: u32) -> &Term {
        self[ix as usize].borrow()
    }

    fn intern<S: TripleStore + ?Sized>(&mut self, ix: u32, store: &mut S) -> TermId {
        let term = self.term(ix);
        match store.term_id(term) {
            Some(id) => id,
            None => store.intern(term.clone()),
        }
    }
}

/// An owned one gives them up, leaving an empty blank node in the slot.
impl Dictionary for Vec<Term> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn term(&self, ix: u32) -> &Term {
        &self[ix as usize]
    }

    fn intern<S: TripleStore + ?Sized>(&mut self, ix: u32, store: &mut S) -> TermId {
        store.intern(std::mem::replace(
            &mut self[ix as usize],
            Term::Blank(String::new()),
        ))
    }
}

/// The one place a batch becomes mutations — the endpoint's writes, the
/// replication feed and log replay all come through here. Returns, per
/// operation, whether it changed anything, and per dictionary index the
/// store's id of the term the operations looked up there.
fn apply<D: Dictionary, S: TripleStore + ?Sized>(
    terms: &mut D,
    ops: &[BlockOp],
    store: &mut S,
) -> (Vec<bool>, Vec<Option<TermId>>) {
    let mut ids = vec![None; terms.len()];
    let applied = ops
        .iter()
        .map(|op| match *op {
            BlockOp::Insert((s, p, o, None)) => {
                let t = (
                    interned(terms, store, &mut ids, s),
                    interned(terms, store, &mut ids, p),
                    interned(terms, store, &mut ids, o),
                );
                store.insert_ids(t)
            }
            BlockOp::Insert((s, p, o, Some(g))) => {
                let g = interned(terms, store, &mut ids, g);
                let t = (
                    interned(terms, store, &mut ids, s),
                    interned(terms, store, &mut ids, p),
                    interned(terms, store, &mut ids, o),
                );
                store.insert_ids_in(g, t)
            }
            BlockOp::Remove((s, p, o, g)) => {
                let t = (
                    known(terms, store, &mut ids, s),
                    known(terms, store, &mut ids, p),
                    known(terms, store, &mut ids, o),
                );
                let g = g.map(|g| known(terms, store, &mut ids, g));
                match (t, g) {
                    ((Some(s), Some(p), Some(o)), None) => store.remove_ids((s, p, o)),
                    ((Some(s), Some(p), Some(o)), Some(Some(g))) => {
                        store.remove_ids_in(g, (s, p, o))
                    }
                    _ => false,
                }
            }
            BlockOp::Clear => {
                let held = !store.is_empty() || !store.graph_ids().is_empty();
                store.clear();
                held
            }
        })
        .collect();
    (applied, ids)
}

/// The store's id of dictionary term `ix`, interning it if need be.
/// `ids` remembers it for the operations that follow.
fn interned<D: Dictionary, S: TripleStore + ?Sized>(
    terms: &mut D,
    store: &mut S,
    ids: &mut [Option<TermId>],
    ix: u32,
) -> TermId {
    *ids[ix as usize].get_or_insert_with(|| terms.intern(ix, store))
}

/// The store's id of dictionary term `ix`, if it has one.
fn known<D: Dictionary, S: TripleStore + ?Sized>(
    terms: &D,
    store: &S,
    ids: &mut [Option<TermId>],
    ix: u32,
) -> Option<TermId> {
    let slot = &mut ids[ix as usize];
    if slot.is_none() {
        *slot = store.term_id(terms.term(ix));
    }
    *slot
}

impl QuadBlock<Term> {
    /// [`apply_to`](Self::apply_to) for a block nobody needs afterwards:
    /// a term the store's interner has never seen is moved into it, not
    /// cloned. (Cloning and then dropping the original is not only the
    /// slower way: over a knowledge base's worth of inserts it leaves the
    /// heap measurably more fragmented.)
    pub fn apply_into<S: TripleStore + ?Sized>(mut self, store: &mut S) -> Applied {
        let (changed, terms) = apply(&mut self.terms, &self.ops, store);
        let ops = self.ops;
        let block = QuadBlock { terms, ops };
        Applied { changed, block }
    }

    /// Decode one block; `bytes` must hold exactly its encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self, BlockError> {
        let mut r = ByteReader { bytes, pos: 0 };
        let n_terms = r.u32()? as usize;
        if n_terms > r.left() / MIN_TERM_LEN {
            return Err(BlockError("more terms advertised than bytes left"));
        }
        let mut terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            terms.push(r.term()?);
        }
        let width = index_width(n_terms);
        let n_ops = r.u32()? as usize;
        if n_ops.checked_mul(1 + 4 * width) != Some(r.left()) {
            return Err(BlockError("op count does not match the bytes left"));
        }
        let none = sentinel(width);
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let kind = r.take(1)?[0];
            let mut field = || -> Result<u32, BlockError> {
                let mut le = [0u8; 4];
                le[..width].copy_from_slice(r.take(width)?);
                Ok(u32::from_le_bytes(le))
            };
            let fields = [field()?, field()?, field()?, field()?];
            let quad = || -> Result<QuadIx, BlockError> {
                let [s, p, o, g] = fields;
                let g = (g != none).then_some(g);
                if [s, p, o]
                    .into_iter()
                    .chain(g)
                    .all(|ix| (ix as usize) < n_terms)
                {
                    Ok((s, p, o, g))
                } else {
                    Err(BlockError("index outside the dictionary"))
                }
            };
            ops.push(match kind {
                KIND_INSERT => BlockOp::Insert(quad()?),
                KIND_REMOVE => BlockOp::Remove(quad()?),
                KIND_CLEAR if fields == [none; 4] => BlockOp::Clear,
                KIND_CLEAR => return Err(BlockError("clear with operands")),
                _ => return Err(BlockError("unknown op kind")),
            });
        }
        Ok(QuadBlock { terms, ops })
    }
}

// ------------------------------------------------------- byte primitives --

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// One term as a block's dictionary holds it: tag, byte length, text.
fn put_term(buf: &mut Vec<u8>, term: &Term) {
    let (tag, text): (u8, &str) = match term {
        Term::Iri(s) => (0, s),
        Term::Literal(l) => (1, &l.lexical),
        Term::Blank(b) => (2, b),
    };
    buf.push(tag);
    put_u32(buf, text.len() as u32);
    buf.extend_from_slice(text.as_bytes());
}

/// A bounds-checked reader over block, log-record or snapshot bytes.
pub(crate) struct ByteReader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn left(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], BlockError> {
        if n > self.left() {
            return Err(BlockError("truncated"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, BlockError> {
        let bytes = self.take(4)?.try_into().expect("took four bytes");
        Ok(u32::from_le_bytes(bytes))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, BlockError> {
        let bytes = self.take(8)?.try_into().expect("took eight bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    pub(crate) fn term(&mut self) -> Result<Term, BlockError> {
        let tag = self.take(1)?[0];
        let len = self.u32()? as usize;
        let text = std::str::from_utf8(self.take(len)?)
            .map_err(|_| BlockError("non-UTF-8 term"))?
            .to_string();
        match tag {
            0 => Ok(Term::iri(text)),
            1 => Ok(Term::lit(text)),
            2 => Ok(Term::Blank(text)),
            _ => Err(BlockError("unknown term tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptests::store_image;
    use crate::store::IndexedStore;

    /// xorshift64: the tests' seeded generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A term drawn from a pool of `pool` per kind, so batches repeat
    /// terms: IRIs, blank nodes, and literals that need every escape the
    /// text formats had — and the empty string.
    fn term(rng: &mut Rng, pool: usize) -> Term {
        let k = rng.below(pool);
        match rng.below(4) {
            0 => Term::iri(format!("http://galo/kb/template/{k:016x}/pop/{}", k % 7)),
            1 => Term::Blank(format!("b{k}")),
            2 => Term::lit(["", "\"", "\\", "a\nb\tc", "é✓", "1.5e3"][k % 6]),
            _ => Term::lit(format!("say \"{k}\"\\\n")),
        }
    }

    fn records(rng: &mut Rng, n: usize, pool: usize) -> Vec<Record> {
        (0..n)
            .map(|_| {
                let g = (rng.below(3) == 0).then(|| term(rng, pool));
                let (s, p, o) = (term(rng, pool), term(rng, pool), term(rng, pool));
                match rng.below(10) {
                    0 => Record::Clear,
                    1..=3 => Record::Remove(s, p, o, g),
                    _ => Record::Insert(s, p, o, g),
                }
            })
            .collect()
    }

    /// The block back as records: what a decoder must reproduce.
    fn as_records<T: Borrow<Term>>(block: &QuadBlock<T>) -> Vec<Record> {
        let quad = |(s, p, o, g): QuadIx| {
            let t = |ix| block.term(ix).clone();
            (t(s), t(p), t(o), g.map(t))
        };
        block
            .ops()
            .iter()
            .map(|op| match *op {
                BlockOp::Insert(q) => {
                    let (s, p, o, g) = quad(q);
                    Record::Insert(s, p, o, g)
                }
                BlockOp::Remove(q) => {
                    let (s, p, o, g) = quad(q);
                    Record::Remove(s, p, o, g)
                }
                BlockOp::Clear => Record::Clear,
            })
            .collect()
    }

    fn assert_round_trips(records: &[Record]) {
        let block = QuadBlock::of_records(records);
        let distinct: std::collections::HashSet<&Term> = block.terms().collect();
        assert_eq!(distinct.len(), block.terms().len(), "each term once");
        let bytes = block.encode();
        let decoded = QuadBlock::decode(&bytes).expect("an encoded block decodes");
        assert_eq!(as_records(&decoded), records);
        assert_eq!(decoded.ops(), block.ops());
        assert_eq!(decoded.encode(), bytes, "one block, one encoding");
    }

    #[test]
    fn seeded_random_blocks_round_trip() {
        let mut rng = Rng(0x5EED_B10C);
        assert_round_trips(&[]);
        assert_round_trips(&[Record::Clear]);
        for round in 0..200 {
            let n = rng.below(40);
            let pool = 1 + rng.below(1 + round);
            assert_round_trips(&records(&mut rng, n, pool));
        }
        // A dictionary on either side of each index width.
        for terms in [254, 255, 256, 65_534, 65_535, 65_536] {
            let records: Vec<Record> = (0..terms - 2)
                .map(|k| {
                    Record::Insert(
                        Term::iri("urn:s"),
                        Term::iri("urn:p"),
                        Term::lit(format!("{k}")),
                        None,
                    )
                })
                .collect();
            let block = QuadBlock::of_records(&records);
            assert_eq!(block.terms().len(), terms);
            assert_round_trips(&records);
        }
        // 20,000 operations over 80,000 terms.
        let big: Vec<Record> = (0..20_000)
            .map(|k| {
                let t = |role: &str| Term::iri(format!("urn:{role}/{k}"));
                match k % 3 {
                    0 => Record::Remove(t("s"), t("p"), t("o"), Some(t("g"))),
                    _ => Record::Insert(t("s"), t("p"), t("o"), Some(t("g"))),
                }
            })
            .collect();
        assert_round_trips(&big);
    }

    #[test]
    fn quads_and_records_borrowed_or_owned_give_the_same_block() {
        let mut rng = Rng(7);
        let quads: Vec<Quad> = (0..50)
            .map(|_| {
                let g = (rng.below(4) == 0).then(|| term(&mut rng, 5));
                (term(&mut rng, 5), term(&mut rng, 5), term(&mut rng, 5), g)
            })
            .collect();
        let as_inserts: Vec<Record> = quads
            .iter()
            .cloned()
            .map(|(s, p, o, g)| Record::Insert(s, p, o, g))
            .collect();
        let bytes = QuadBlock::of_inserts(&quads).encode();
        assert_eq!(QuadBlock::of_records(&as_inserts).encode(), bytes);
        // The owned block states the same batch, a slot per occurrence.
        let owned = QuadBlock::from_records(as_inserts.iter().cloned());
        assert_eq!(as_records(&owned), as_inserts);
        assert!(owned.terms().len() > QuadBlock::decode(&bytes).unwrap().terms().len());
    }

    #[test]
    fn a_block_cut_at_every_byte_is_an_error() {
        let mut rng = Rng(11);
        for n in [0, 1, 30] {
            let bytes = QuadBlock::of_records(&records(&mut rng, n, 6)).encode();
            for cut in 0..bytes.len() {
                assert!(QuadBlock::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(QuadBlock::decode(&longer).is_err(), "trailing byte");
        }
    }

    #[test]
    fn malformed_blocks_are_rejected_by_name() {
        let q =
            |o: &str| Record::Insert(Term::iri("urn:s"), Term::iri("urn:p"), Term::lit(o), None);
        let bytes = QuadBlock::of_records(&[q("abc"), Record::Clear]).encode();
        let reject = |edit: &dyn Fn(&mut Vec<u8>), why: &'static str| {
            let mut bad = bytes.clone();
            edit(&mut bad);
            assert_eq!(QuadBlock::decode(&bad), Err(BlockError(why)));
        };
        let ops = bytes.len() - 2 * 5;
        reject(&|b| b[ops + 3] = 3, "index outside the dictionary");
        reject(&|b| b[ops + 4] = 0xFE, "index outside the dictionary");
        reject(&|b| b[ops] = 9, "unknown op kind");
        reject(&|b| b[ops + 5 + 2] = 0, "clear with operands");
        reject(&|b| b[4] = 3, "unknown term tag");
        reject(&|b| b[ops - 5] = 0xFF, "non-UTF-8 term");
        reject(&|b| b[0] = 200, "more terms advertised than bytes left");
        reject(
            &|b| b[ops - 4] = 3,
            "op count does not match the bytes left",
        );
        reject(&|b| b[5] = 200, "truncated");
    }

    #[test]
    fn arbitrary_bytes_and_mutations_never_panic_or_over_reserve() {
        let mut rng = Rng(0xFACE);
        let valid = QuadBlock::of_records(&records(&mut rng, 25, 8)).encode();
        for round in 0..20_000 {
            let bytes = if round % 2 == 0 {
                let len = rng.below(64);
                (0..len).map(|_| rng.next() as u8).collect()
            } else {
                let mut bytes = valid.clone();
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(bytes.len());
                    match rng.below(3) {
                        0 => bytes[at] = rng.next() as u8,
                        1 => bytes[at] ^= 1 << rng.below(8),
                        _ => bytes.truncate(at),
                    }
                    if bytes.is_empty() {
                        break;
                    }
                }
                bytes
            };
            if let Ok(block) = QuadBlock::decode(&bytes) {
                // Whatever decodes was checked against the bytes it came
                // from, never reserved on the say-so of a count.
                assert!(block.terms.capacity() <= bytes.len());
                assert!(block.ops.capacity() <= bytes.len());
                assert_eq!(block.encode(), bytes);
            }
        }
        // Counts that promise the moon over a few bytes.
        for n in [u32::MAX, 1 << 31, 1 << 20] {
            let mut bytes = n.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 9]);
            assert!(QuadBlock::decode(&bytes).is_err());
            let mut bytes = 0u32.to_le_bytes().to_vec();
            bytes.extend_from_slice(&n.to_le_bytes());
            bytes.extend_from_slice(&[0; 9]);
            assert!(QuadBlock::decode(&bytes).is_err());
        }
    }

    /// What `apply_to` replaced: each record applied on its own through
    /// the store's term-level calls, interning per occurrence.
    fn apply_one_at_a_time(store: &mut IndexedStore, records: &[Record]) -> Vec<bool> {
        records
            .iter()
            .cloned()
            .map(|record| match record {
                Record::Insert(s, p, o, None) => store.insert(s, p, o),
                Record::Insert(s, p, o, Some(g)) => store.insert_in(g, s, p, o),
                Record::Remove(s, p, o, None) => store.remove(&s, &p, &o),
                Record::Remove(s, p, o, Some(g)) => {
                    let ids = (store.term_id(&s), store.term_id(&p), store.term_id(&o));
                    match (store.term_id(&g), ids) {
                        (Some(g), (Some(s), Some(p), Some(o))) => store.remove_ids_in(g, (s, p, o)),
                        _ => false,
                    }
                }
                Record::Clear => {
                    let held = !store.is_empty() || !store.graph_ids().is_empty();
                    store.clear();
                    held
                }
            })
            .collect()
    }

    #[test]
    fn applying_a_block_equals_applying_its_records_one_at_a_time() {
        let mut rng = Rng(0xD1FF);
        for round in 0..300 {
            let mut one_by_one = IndexedStore::new();
            // A block applied by reference, the same one handed over, and
            // the records handed over as they are.
            let (mut borrowed, mut moved) = (IndexedStore::new(), IndexedStore::new());
            let mut owned = IndexedStore::new();
            for _ in 0..1 + rng.below(4) {
                let n = rng.below(30);
                let batch = records(&mut rng, n, 1 + round % 9);
                let block = QuadBlock::decode(&QuadBlock::of_records(&batch).encode()).unwrap();
                let want = apply_one_at_a_time(&mut one_by_one, &batch);
                assert_eq!(block.apply_to(&mut borrowed).changed, want, "round {round}");
                assert_eq!(
                    as_records(&block),
                    batch,
                    "applied by reference, kept whole"
                );
                assert_eq!(block.apply_into(&mut moved).changed, want, "round {round}");
                let handed_over = QuadBlock::from_records(batch.iter().cloned());
                let Applied {
                    changed,
                    block: left,
                } = handed_over.apply_into(&mut owned);
                assert_eq!(changed, want, "round {round}");
                // What comes back reads, through the store's ids, as the
                // statements that went in.
                for (op, record) in left.ops().iter().zip(&batch) {
                    let term = |ix| left.term_in(&owned, ix);
                    match (op, record) {
                        (BlockOp::Insert((s, p, o, g)), Record::Insert(rs, rp, ro, rg)) => {
                            assert_eq!([term(*s), term(*p), term(*o)], [rs, rp, ro]);
                            assert_eq!(g.map(term), rg.as_ref());
                        }
                        (BlockOp::Remove(_), Record::Remove(..))
                        | (BlockOp::Clear, Record::Clear) => {}
                        other => panic!("the operations changed kind: {other:?}"),
                    }
                }
                for blockwise in [&borrowed, &moved, &owned] {
                    assert_eq!(
                        crate::ntriples::to_ntriples(blockwise),
                        crate::ntriples::to_ntriples(&one_by_one)
                    );
                    // Same terms interned, in the same order: a remove
                    // interns nothing, an insert interns graph, subject,
                    // predicate, object as the term-level calls do.
                    assert_eq!(blockwise.interner_len(), one_by_one.interner_len());
                    for id in 0..blockwise.interner_len() as u32 {
                        assert_eq!(
                            blockwise.resolve(TermId(id)),
                            one_by_one.resolve(TermId(id))
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_store_image_as_a_block_replaces_any_other() {
        let mut rng = Rng(3);
        let mut source = IndexedStore::new();
        QuadBlock::of_records(&records(&mut rng, 60, 6)).apply_to(&mut source);
        let mut target = IndexedStore::new();
        QuadBlock::of_records(&records(&mut rng, 20, 4)).apply_to(&mut target);
        QuadBlock::replacing_with(&source).apply_to(&mut target);
        // Equal as sets of statements; ids, and so scan order, are the
        // target's own.
        assert!(!source.is_empty() && !source.graph_ids().is_empty());
        assert_eq!(store_image(&target), store_image(&source));
    }
}
