//! N-Triples / N-Quads serialization — the knowledge base's persistence
//! format. Default-graph triples serialize as N-Triples lines
//! (`<s> <p> <o> .`); named-graph content serializes as N-Quads lines
//! with the graph label in the fourth position (`<s> <p> <o> <g> .`),
//! so a dataset with per-workload graphs round-trips losslessly.
//!
//! The paper stores the knowledge base in Jena TDB; this reproduction
//! persists it as N-Triples, the simplest W3C interchange format, which
//! keeps persistence dependency-free and diffable.

use std::fmt;

use crate::store::{IndexedStore, TripleStore};
use crate::term::Term;

/// Error from N-Triples parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for NtParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N-Triples parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for NtParseError {}

/// Serialize a store as N-Triples text (one `<s> <p> <o> .` per line).
pub fn to_ntriples<S: TripleStore + ?Sized>(store: &S) -> String {
    let mut out = String::new();
    for (s, p, o) in store.iter_terms() {
        out.push_str(&format!("{s} {p} {o} .\n"));
    }
    // Named graphs follow as N-Quads lines.
    for graph in store.graph_names() {
        let g = store.term_id(&graph).expect("graph name is interned");
        for (s, p, o) in store.scan_in(g, None, None, None) {
            out.push_str(&format!(
                "{} {} {} {graph} .\n",
                store.resolve(s),
                store.resolve(p),
                store.resolve(o)
            ));
        }
    }
    out
}

/// Parse N-Triples text into a fresh indexed store.
pub fn from_ntriples(text: &str) -> Result<IndexedStore, NtParseError> {
    let mut store = IndexedStore::new();
    load_ntriples(&mut store, text)?;
    Ok(store)
}

/// One parsed statement: a triple plus an optional named-graph label.
pub type Quad = (Term, Term, Term, Option<Term>);

/// Parse N-Triples / N-Quads text into a list of term triples with an
/// optional named-graph label — the backend-neutral form, validated
/// before any store is touched.
pub fn parse_ntriples(text: &str) -> Result<Vec<Quad>, NtParseError> {
    let mut triples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut pos = 0usize;
        let chars: Vec<char> = line.chars().collect();
        let s = parse_term(&chars, &mut pos, lineno + 1)?;
        skip_ws(&chars, &mut pos);
        let p = parse_term(&chars, &mut pos, lineno + 1)?;
        skip_ws(&chars, &mut pos);
        let o = parse_term(&chars, &mut pos, lineno + 1)?;
        skip_ws(&chars, &mut pos);
        // N-Quads: an optional graph label before the terminating dot.
        let graph = if pos < chars.len() && chars.get(pos) != Some(&'.') {
            let g = parse_term(&chars, &mut pos, lineno + 1)?;
            skip_ws(&chars, &mut pos);
            Some(g)
        } else {
            None
        };
        if chars.get(pos) != Some(&'.') {
            return Err(NtParseError {
                line: lineno + 1,
                message: "expected terminating '.'".into(),
            });
        }
        triples.push((s, p, o, graph));
    }
    Ok(triples)
}

/// Parse N-Triples / N-Quads text into an existing store.
pub fn load_ntriples<S: TripleStore + ?Sized>(
    store: &mut S,
    text: &str,
) -> Result<(), NtParseError> {
    for (s, p, o, graph) in parse_ntriples(text)? {
        match graph {
            Some(g) => store.insert_in(g, s, p, o),
            None => store.insert(s, p, o),
        };
    }
    Ok(())
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
        *pos += 1;
    }
}

fn parse_term(chars: &[char], pos: &mut usize, line: usize) -> Result<Term, NtParseError> {
    skip_ws(chars, pos);
    let err = |message: &str| NtParseError {
        line,
        message: message.to_string(),
    };
    match chars.get(*pos) {
        Some('<') => {
            *pos += 1;
            let start = *pos;
            while chars.get(*pos).is_some_and(|&c| c != '>') {
                *pos += 1;
            }
            if chars.get(*pos) != Some(&'>') {
                return Err(err("unterminated IRI"));
            }
            let iri: String = chars[start..*pos].iter().collect();
            *pos += 1;
            Ok(Term::iri(iri))
        }
        Some('"') => {
            *pos += 1;
            let mut value = String::new();
            loop {
                match chars.get(*pos) {
                    Some('\\') => {
                        *pos += 1;
                        match chars.get(*pos) {
                            Some('"') => value.push('"'),
                            Some('\\') => value.push('\\'),
                            Some('n') => value.push('\n'),
                            Some('t') => value.push('\t'),
                            Some(&c) => value.push(c),
                            None => return Err(err("dangling escape")),
                        }
                        *pos += 1;
                    }
                    Some('"') => {
                        *pos += 1;
                        break;
                    }
                    Some(&c) => {
                        value.push(c);
                        *pos += 1;
                    }
                    None => return Err(err("unterminated literal")),
                }
            }
            // Ignore optional datatype/lang suffixes (^^<...> or @xx).
            if chars.get(*pos) == Some(&'^') {
                while chars.get(*pos).is_some_and(|&c| !c.is_whitespace()) {
                    *pos += 1;
                }
            } else if chars.get(*pos) == Some(&'@') {
                while chars.get(*pos).is_some_and(|&c| !c.is_whitespace()) {
                    *pos += 1;
                }
            }
            Ok(Term::lit(value))
        }
        Some('_') => {
            *pos += 1;
            if chars.get(*pos) != Some(&':') {
                return Err(err("expected ':' after '_' in blank node"));
            }
            *pos += 1;
            let start = *pos;
            while chars
                .get(*pos)
                .is_some_and(|&c| c.is_alphanumeric() || c == '_' || c == '-')
            {
                *pos += 1;
            }
            Ok(Term::Blank(chars[start..*pos].iter().collect()))
        }
        _ => Err(err("expected term")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_triples() {
        let mut st = IndexedStore::new();
        st.insert(
            Term::iri("http://galo/qep/pop/5"),
            Term::iri("http://galo/qep/property/hasLowerCardinality"),
            Term::lit("19771"),
        );
        st.insert(
            Term::iri("http://galo/qep/pop/5"),
            Term::iri("http://galo/qep/property/hasHigherCardinality"),
            Term::lit("128500"),
        );
        st.insert(
            Term::iri("http://galo/qep/pop/5"),
            Term::iri("http://galo/qep/property/hasOutputStream"),
            Term::iri("http://galo/qep/pop/3"),
        );
        let text = to_ntriples(&st);
        let st2 = from_ntriples(&text).unwrap();
        assert_eq!(st2.len(), 3);
        for (s, p, o) in st.iter_terms() {
            assert!(st2.contains(s, p, o));
        }
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# knowledge base export\n\n<http://a> <http://b> \"x\" .\n";
        let st = from_ntriples(text).unwrap();
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn escaped_quotes_roundtrip() {
        let mut st = IndexedStore::new();
        st.insert(
            Term::iri("http://a"),
            Term::iri("http://b"),
            Term::lit("say \"hi\"\nthen\\leave"),
        );
        let text = to_ntriples(&st);
        let st2 = from_ntriples(&text).unwrap();
        assert!(st2.contains(
            &Term::iri("http://a"),
            &Term::iri("http://b"),
            &Term::lit("say \"hi\"\nthen\\leave"),
        ));
    }

    #[test]
    fn blank_nodes_roundtrip() {
        let mut st = IndexedStore::new();
        st.insert(
            Term::Blank("b0".into()),
            Term::iri("http://p"),
            Term::lit("v"),
        );
        let st2 = from_ntriples(&to_ntriples(&st)).unwrap();
        assert_eq!(st2.len(), 1);
    }

    /// A long unbroken literal (a thousand hex digits, no escapes) must
    /// round-trip byte for byte, not be truncated or split.
    #[test]
    fn long_hex_literal_roundtrips() {
        let hex: String = (0..1024u32)
            .map(|i| char::from_digit(i % 16, 16).unwrap())
            .collect();
        let mut st = IndexedStore::new();
        st.insert(
            Term::iri("http://galo/qep/pop/5"),
            Term::iri("http://galo/qep/property/hasCardinalityStat"),
            Term::lit(hex.clone()),
        );
        let text = to_ntriples(&st);
        let st2 = from_ntriples(&text).unwrap();
        assert!(st2.contains(
            &Term::iri("http://galo/qep/pop/5"),
            &Term::iri("http://galo/qep/property/hasCardinalityStat"),
            &Term::lit(hex),
        ));
        // Stability: a second serialization is byte-identical.
        assert_eq!(to_ntriples(&st2), text);
    }

    #[test]
    fn missing_dot_is_an_error() {
        let e = from_ntriples("<http://a> <http://b> \"x\"").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("'.'"));
    }

    #[test]
    fn datatype_suffix_tolerated() {
        let st =
            from_ntriples("<http://a> <http://b> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .")
                .unwrap();
        assert!(st.contains(
            &Term::iri("http://a"),
            &Term::iri("http://b"),
            &Term::lit("42")
        ));
    }
}
