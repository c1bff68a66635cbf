//! RDF terms and interning.
//!
//! The knowledge base holds millions of triples during routinization runs
//! (Exp-4: 1,000 problem patterns), so terms are interned once into
//! [`TermId`]s and triples are stored as integer tuples.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An RDF term: IRI, literal, or blank node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    Iri(String),
    Literal(Literal),
    Blank(String),
}

/// A literal with its lexical form. The numeric interpretation is computed
/// once at construction, since FILTER comparisons in the matching engine
/// are the hot path.
#[derive(Debug, Clone)]
pub struct Literal {
    pub lexical: String,
    numeric: Option<f64>,
}

impl Literal {
    pub fn new(lexical: impl Into<String>) -> Self {
        let lexical = lexical.into();
        let numeric = lexical.trim().parse::<f64>().ok();
        Literal { lexical, numeric }
    }

    /// Numeric value when the lexical form parses as a number (SPARQL's
    /// numeric coercion, restricted to doubles).
    pub fn as_number(&self) -> Option<f64> {
        self.numeric
    }
}

impl PartialEq for Literal {
    fn eq(&self, other: &Self) -> bool {
        self.lexical == other.lexical
    }
}
impl Eq for Literal {}
impl std::hash::Hash for Literal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.lexical.hash(state);
    }
}
impl PartialOrd for Literal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Literal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.lexical.cmp(&other.lexical)
    }
}

impl Term {
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    pub fn lit(s: impl Into<String>) -> Term {
        Term::Literal(Literal::new(s))
    }

    pub fn num(n: f64) -> Term {
        // Integral values serialize without the trailing `.0`, matching the
        // paper's examples ("2949250"). The numeric value is the one the
        // text parses back to — the integer, or `n` itself, which the
        // shortest round-trip formatting gives back — so it is not parsed.
        let (lexical, numeric) = if n.fract() == 0.0 && n.abs() < 9.0e15 {
            let int = n as i64;
            (int.to_string(), int as f64)
        } else if n.is_nan() {
            return Term::lit(format!("{n}"));
        } else {
            (format!("{n}"), n)
        };
        Term::Literal(Literal {
            lexical,
            numeric: Some(numeric),
        })
    }

    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// SPARQL `STR()`: the lexical form for literals, the IRI text for
    /// IRIs, the label for blank nodes.
    pub fn str_value(&self) -> &str {
        match self {
            Term::Iri(s) => s,
            Term::Literal(l) => &l.lexical,
            Term::Blank(b) => b,
        }
    }
}

impl fmt::Display for Term {
    /// N-Triples surface form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Literal(l) => write!(
                f,
                "\"{}\"",
                l.lexical
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
                    .replace('\t', "\\t")
            ),
            Term::Blank(b) => write!(f, "_:{b}"),
        }
    }
}

/// Interned term identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// The two-way map between [`Term`]s and the [`TermId`]s a store indexes
/// by. A store holds one: [`Interner`], its own, or — for each shard of a
/// [`ShardedStore`](crate::ShardedStore) — a handle on the sharded
/// store's one shared dictionary, so that every shard indexes by the same
/// ids the sharded store hands out.
pub trait TermDictionary: fmt::Debug + Send + Sync {
    /// Intern a term, returning its id (stable for the dictionary's
    /// lifetime).
    fn intern(&mut self, term: Term) -> TermId;

    /// Look up a term's id without interning.
    fn get(&self, term: &Term) -> Option<TermId>;

    /// Resolve an id this dictionary issued back to its term.
    fn resolve(&self, id: TermId) -> &Term;
}

/// One slot of a [`TermIndex`]: 32 bits of the term's hash and its id
/// (`u32::MAX` when the slot is free; no dictionary issues that id).
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

const FREE: u32 = u32::MAX;

/// The term → id half of a dictionary: an open-addressing table, probed
/// linearly, of ids filed under their terms' hashes. It holds no term —
/// the dictionary keeps each term once, in its id-ordered table, and the
/// index asks it whether the term behind an id is the one sought — and
/// it keeps the hash bits it places by, so growing never hashes a term
/// again. The dictionary hashes with a per-dictionary random key
/// (`RandomState`), as terms arrive from outside the program.
#[derive(Debug, Default, Clone)]
pub(crate) struct TermIndex {
    /// A power of two many, at most three quarters taken.
    slots: Vec<Slot>,
    len: usize,
}

impl TermIndex {
    /// The id filed under `hash` whose term `is` accepts.
    pub(crate) fn find(&self, hash: u64, is: impl Fn(TermId) -> bool) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let key = hash as u32;
        let mut at = key as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == FREE {
                return None;
            }
            if slot.hash == key && is(TermId(slot.id)) {
                return Some(TermId(slot.id));
            }
            at = (at + 1) & mask;
        }
    }

    /// File `id` under `hash`. The caller has just seen [`find`](Self::find)
    /// miss for the same term.
    pub(crate) fn insert(&mut self, hash: u64, id: TermId) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.place(Slot {
            hash: hash as u32,
            id: id.0,
        });
        self.len += 1;
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut at = slot.hash as usize & mask;
        while self.slots[at].id != FREE {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(16);
        let free = Slot { hash: 0, id: FREE };
        let old = std::mem::replace(&mut self.slots, vec![free; capacity]);
        for slot in old.into_iter().filter(|slot| slot.id != FREE) {
            self.place(slot);
        }
    }
}

/// Term interner: bidirectional map between [`Term`]s and [`TermId`]s.
/// Each term is stored once, in id order; the index beside it finds a
/// term's id with one hash of the term.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    terms: Vec<Term>,
    index: TermIndex,
    hasher: RandomState,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (stable for the lifetime of the
    /// interner).
    pub fn intern(&mut self, term: Term) -> TermId {
        let hash = self.hasher.hash_one(&term);
        if let Some(id) = self.find(hash, &term) {
            return id;
        }
        assert!(
            self.terms.len() < FREE as usize,
            "interner id space exhausted"
        );
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term);
        self.index.insert(hash, id);
        id
    }

    /// Look up a term's id without interning.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.find(self.hasher.hash_one(term), term)
    }

    fn find(&self, hash: u64, term: &Term) -> Option<TermId> {
        self.index
            .find(hash, |id| self.terms[id.0 as usize] == *term)
    }

    /// Resolve an id back to its term.
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

impl TermDictionary for Interner {
    fn intern(&mut self, term: Term) -> TermId {
        Interner::intern(self, term)
    }

    fn get(&self, term: &Term) -> Option<TermId> {
        Interner::get(self, term)
    }

    fn resolve(&self, id: TermId) -> &Term {
        Interner::resolve(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern(Term::iri("http://galo/qep/pop/2"));
        let b = i.intern(Term::iri("http://galo/qep/pop/2"));
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.resolve(a).as_iri(), Some("http://galo/qep/pop/2"));
    }

    #[test]
    fn literal_numeric_interpretation() {
        assert_eq!(Literal::new("2949250").as_number(), Some(2949250.0));
        assert_eq!(Literal::new("13.1688").as_number(), Some(13.1688));
        assert_eq!(Literal::new("1.441e+06").as_number(), Some(1_441_000.0));
        assert_eq!(Literal::new("NLJOIN").as_number(), None);
    }

    #[test]
    fn num_carries_the_value_its_text_parses_to() {
        let mut state = 0x9E37_79B9_u64;
        let mut values = vec![
            0.0,
            -0.0,
            1.5,
            -2.25,
            0.1,
            1e300,
            1e-300,
            5e-324,
            9.0e15,
            -9.0e15,
            8_999_999_999_999_999.0,
            2f64.powi(53),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values.push(f64::from_bits(state));
            values.push((state % 100_000) as f64 / 8.0);
        }
        for n in values {
            let Term::Literal(made) = Term::num(n) else {
                panic!("a number is a literal")
            };
            let parsed = Literal::new(made.lexical.clone());
            let bits = |v: Option<f64>| v.map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits());
            assert_eq!(bits(made.as_number()), bits(parsed.as_number()), "{n:e}");
        }
    }

    #[test]
    fn num_formats_integers_without_fraction() {
        assert_eq!(Term::num(2949250.0).str_value(), "2949250");
        assert_eq!(Term::num(13.1688).str_value(), "13.1688");
    }

    #[test]
    fn literal_equality_is_lexical() {
        // "1.0" and "1" are numerically equal but lexically distinct terms.
        assert_ne!(Term::lit("1.0"), Term::lit("1"));
        assert_eq!(Term::lit("HSJOIN"), Term::lit("HSJOIN"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://x/y").to_string(), "<http://x/y>");
        assert_eq!(Term::lit("a \"b\"").to_string(), "\"a \\\"b\\\"\"");
        assert_eq!(Term::Blank("b0".into()).to_string(), "_:b0");
    }

    #[test]
    fn str_value_matches_sparql_str_semantics() {
        assert_eq!(Term::iri("http://x").str_value(), "http://x");
        assert_eq!(Term::lit("42").str_value(), "42");
    }
}
