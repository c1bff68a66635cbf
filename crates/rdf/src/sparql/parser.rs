//! SPARQL text parser for the GALO subset.

use std::collections::HashMap;
use std::fmt;

use crate::term::Term;

use super::ast::{CmpOp, Expr, PathPattern, SelectQuery, TermPattern, TriplePattern, Update};

/// Parse error with a byte-offset hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for SparqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SPARQL parse error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for SparqlParseError {}

/// Parse a `SELECT` query.
pub fn parse_select(text: &str) -> Result<SelectQuery, SparqlParseError> {
    let mut p = P::new(text);
    let prefixes = p.parse_prefixes()?;
    p.prefixes = prefixes;
    let q = p.parse_select()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after query"));
    }
    Ok(q)
}

/// Parse an update request (`INSERT DATA` / `DELETE WHERE`).
pub fn parse_update(text: &str) -> Result<Update, SparqlParseError> {
    let mut p = P::new(text);
    let prefixes = p.parse_prefixes()?;
    p.prefixes = prefixes;
    let u = p.parse_update()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after update"));
    }
    Ok(u)
}

/// A parsed `WHERE` group: triple patterns, filters, and the optional
/// `GRAPH` scope covering the whole group.
type WhereGroup = (Vec<TriplePattern>, Vec<Expr>, Option<Term>);

struct P<'a> {
    text: &'a str,
    chars: Vec<char>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl<'a> P<'a> {
    fn new(text: &'a str) -> Self {
        P {
            text,
            chars: text.chars().collect(),
            pos: 0,
            prefixes: HashMap::new(),
        }
    }

    fn err(&self, message: impl Into<String>) -> SparqlParseError {
        SparqlParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            if c.is_whitespace() {
                self.pos += 1;
            } else if c == '#' {
                while self.pos < self.chars.len() && self.chars[self.pos] != '\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), SparqlParseError> {
        self.skip_ws();
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    /// Case-insensitive keyword test; consumes on match.
    fn keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let end = self.pos + kw.len();
        if end > self.chars.len() {
            return false;
        }
        let slice: String = self.chars[self.pos..end].iter().collect();
        if slice.eq_ignore_ascii_case(kw) {
            // Must not be a prefix of a longer identifier.
            let next = self.chars.get(end);
            if next.is_none_or(|c| !c.is_alphanumeric() && *c != '_') {
                self.pos = end;
                return true;
            }
        }
        false
    }

    fn parse_prefixes(&mut self) -> Result<HashMap<String, String>, SparqlParseError> {
        let mut prefixes = HashMap::new();
        loop {
            self.skip_ws();
            if !self.keyword("PREFIX") {
                break;
            }
            self.skip_ws();
            let name = self.parse_name()?;
            self.expect(':')?;
            self.skip_ws();
            let iri = self.parse_iriref()?;
            prefixes.insert(name, iri);
        }
        Ok(prefixes)
    }

    fn parse_name(&mut self) -> Result<String, SparqlParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected name"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn parse_iriref(&mut self) -> Result<String, SparqlParseError> {
        if !self.eat('<') {
            return Err(self.err("expected '<' opening IRI"));
        }
        let start = self.pos;
        while self.peek().is_some_and(|c| c != '>') {
            self.pos += 1;
        }
        let end = self.pos;
        if !self.eat('>') {
            return Err(self.err("unterminated IRI"));
        }
        Ok(self.chars[start..end].iter().collect())
    }

    fn parse_select(&mut self) -> Result<SelectQuery, SparqlParseError> {
        if !self.keyword("SELECT") {
            return Err(self.err("expected SELECT"));
        }
        let distinct = self.keyword("DISTINCT");
        let mut vars = Vec::new();
        self.skip_ws();
        if self.eat('*') {
            // SELECT * — empty projection list means all variables.
        } else {
            loop {
                self.skip_ws();
                if self.peek() == Some('?') {
                    self.pos += 1;
                    vars.push(self.parse_name()?);
                } else {
                    break;
                }
            }
            if vars.is_empty() {
                return Err(self.err("expected projection variables or '*'"));
            }
        }
        if !self.keyword("WHERE") {
            return Err(self.err("expected WHERE"));
        }
        let (patterns, filters, graph) = self.parse_where_group()?;

        let mut order_by = None;
        if self.keyword("ORDER") {
            if !self.keyword("BY") {
                return Err(self.err("expected BY after ORDER"));
            }
            self.skip_ws();
            if !self.eat('?') {
                return Err(self.err("expected variable after ORDER BY"));
            }
            order_by = Some(self.parse_name()?);
        }
        let mut limit = None;
        if self.keyword("LIMIT") {
            self.skip_ws();
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            let digits: String = self.chars[start..self.pos].iter().collect();
            limit = Some(
                digits
                    .parse()
                    .map_err(|_| self.err("expected LIMIT count"))?,
            );
        }

        Ok(SelectQuery {
            distinct,
            vars,
            patterns,
            filters,
            graph,
            order_by,
            limit,
        })
    }

    fn parse_update(&mut self) -> Result<Update, SparqlParseError> {
        if self.keyword("INSERT") {
            if !self.keyword("DATA") {
                return Err(self.err("expected DATA after INSERT"));
            }
            let (patterns, filters) = self.parse_group()?;
            if !filters.is_empty() {
                return Err(self.err("FILTER not allowed in INSERT DATA"));
            }
            let mut triples = Vec::with_capacity(patterns.len());
            for p in patterns {
                let (TermPattern::Ground(s), PathPattern::Direct(pred), TermPattern::Ground(o)) =
                    (p.subject, p.path, p.object)
                else {
                    return Err(self.err("INSERT DATA requires ground triples"));
                };
                triples.push((s, pred, o));
            }
            Ok(Update::InsertData(triples))
        } else if self.keyword("DELETE") {
            if !self.keyword("WHERE") {
                return Err(self.err("expected WHERE after DELETE"));
            }
            let (patterns, filters) = self.parse_group()?;
            if !filters.is_empty() {
                return Err(self.err("FILTER not supported in DELETE WHERE"));
            }
            Ok(Update::DeleteWhere(patterns))
        } else {
            Err(self.err("expected INSERT DATA or DELETE WHERE"))
        }
    }

    /// A `WHERE` group, which may scope its whole pattern to one named
    /// graph: `{ GRAPH <g> { … } }`. `GRAPH` is a reserved word at the
    /// head of the group; mixing scoped and default-graph patterns in one
    /// group is not supported — the dataset is all-or-nothing.
    fn parse_where_group(&mut self) -> Result<WhereGroup, SparqlParseError> {
        self.expect('{')?;
        if self.keyword("GRAPH") {
            let graph = self.parse_iri_term()?;
            let (patterns, filters) = self.parse_group()?;
            self.expect('}')?;
            return Ok((patterns, filters, Some(graph)));
        }
        let (patterns, filters) = self.parse_group_rest()?;
        Ok((patterns, filters, None))
    }

    fn parse_group(&mut self) -> Result<(Vec<TriplePattern>, Vec<Expr>), SparqlParseError> {
        self.expect('{')?;
        self.parse_group_rest()
    }

    /// The body of a group, after its opening `{` has been consumed.
    fn parse_group_rest(&mut self) -> Result<(Vec<TriplePattern>, Vec<Expr>), SparqlParseError> {
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            self.skip_ws();
            if self.eat('}') {
                break;
            }
            if self.keyword("FILTER") {
                self.expect('(')?;
                let e = self.parse_expr()?;
                self.expect(')')?;
                filters.push(e);
                self.skip_ws();
                self.eat('.');
                continue;
            }
            let subject = self.parse_term_pattern()?;
            self.skip_ws();
            let path = self.parse_path()?;
            let object = self.parse_term_pattern()?;
            patterns.push(TriplePattern {
                subject,
                path,
                object,
            });
            self.skip_ws();
            self.eat('.');
        }
        Ok((patterns, filters))
    }

    fn parse_path(&mut self) -> Result<PathPattern, SparqlParseError> {
        self.skip_ws();
        let iri = self.parse_iri_term()?;
        if self.eat('+') {
            Ok(PathPattern::Plus(iri))
        } else if self.eat('*') {
            Ok(PathPattern::Star(iri))
        } else {
            Ok(PathPattern::Direct(iri))
        }
    }

    fn parse_iri_term(&mut self) -> Result<Term, SparqlParseError> {
        self.skip_ws();
        if self.peek() == Some('<') {
            return Ok(Term::iri(self.parse_iriref()?));
        }
        // Prefixed name: prefix:local.
        let name = self.parse_name()?;
        if !self.eat(':') {
            return Err(self.err(format!("expected ':' after prefix '{name}'")));
        }
        let local = self.parse_name()?;
        let base = self
            .prefixes
            .get(&name)
            .ok_or_else(|| self.err(format!("unknown prefix '{name}'")))?;
        Ok(Term::iri(format!("{base}{local}")))
    }

    fn parse_term_pattern(&mut self) -> Result<TermPattern, SparqlParseError> {
        self.skip_ws();
        match self.peek() {
            Some('?') => {
                self.pos += 1;
                Ok(TermPattern::Var(self.parse_name()?))
            }
            Some('<') => Ok(TermPattern::Ground(Term::iri(self.parse_iriref()?))),
            Some('"') | Some('\'') => Ok(TermPattern::Ground(self.parse_string_literal()?)),
            Some(c) if c.is_ascii_digit() || c == '-' => {
                Ok(TermPattern::Ground(self.parse_numeric_literal()?))
            }
            Some('_') => {
                self.pos += 1;
                if !self.eat(':') {
                    return Err(self.err("expected ':' in blank node"));
                }
                Ok(TermPattern::Ground(Term::Blank(self.parse_name()?)))
            }
            Some(_) => {
                // Bare word (e.g. NLJOIN in the paper's §3.1 example) or a
                // prefixed name — decide by the presence of ':'.
                let name = self.parse_name()?;
                if self.eat(':') {
                    let local = self.parse_name()?;
                    let base = self
                        .prefixes
                        .get(&name)
                        .ok_or_else(|| self.err(format!("unknown prefix '{name}'")))?;
                    Ok(TermPattern::Ground(Term::iri(format!("{base}{local}"))))
                } else {
                    Ok(TermPattern::Ground(Term::lit(name)))
                }
            }
            None => Err(self.err("expected term pattern")),
        }
    }

    fn parse_string_literal(&mut self) -> Result<Term, SparqlParseError> {
        let quote = self.peek().ok_or_else(|| self.err("expected string"))?;
        self.pos += 1;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some('\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c) => {
                            s.push(match c {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                            self.pos += 1;
                        }
                        None => return Err(self.err("dangling escape")),
                    }
                }
                Some(c) if c == quote => {
                    self.pos += 1;
                    break;
                }
                Some(c) => {
                    s.push(c);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
        Ok(Term::lit(s))
    }

    fn parse_numeric_literal(&mut self) -> Result<Term, SparqlParseError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '+')
        {
            // Stop a trailing '+'/'.' that belongs to syntax, not the number.
            if (self.peek() == Some('+') || self.peek() == Some('.'))
                && !self
                    .chars
                    .get(self.pos + 1)
                    .is_some_and(|c| c.is_ascii_digit())
            {
                // Only consume '+' after an exponent marker.
                let prev = self.chars.get(self.pos.wrapping_sub(1));
                if !(self.peek() == Some('+') && matches!(prev, Some('e') | Some('E'))) {
                    break;
                }
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if text.parse::<f64>().is_err() {
            return Err(self.err(format!("bad numeric literal '{text}'")));
        }
        Ok(Term::lit(text))
    }

    // ---- expressions ----

    fn parse_expr(&mut self) -> Result<Expr, SparqlParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SparqlParseError> {
        let mut lhs = self.parse_and()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('|') && self.chars.get(self.pos + 1) == Some(&'|') {
                self.pos += 2;
                let rhs = self.parse_and()?;
                lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_and(&mut self) -> Result<Expr, SparqlParseError> {
        let mut lhs = self.parse_cmp()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('&') && self.chars.get(self.pos + 1) == Some(&'&') {
                self.pos += 2;
                let rhs = self.parse_cmp()?;
                lhs = Expr::And(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr, SparqlParseError> {
        let lhs = self.parse_primary()?;
        self.skip_ws();
        let op = match (self.peek(), self.chars.get(self.pos + 1)) {
            (Some('<'), Some('=')) => {
                self.pos += 2;
                CmpOp::Le
            }
            (Some('>'), Some('=')) => {
                self.pos += 2;
                CmpOp::Ge
            }
            (Some('!'), Some('=')) => {
                self.pos += 2;
                CmpOp::Ne
            }
            (Some('<'), _) => {
                self.pos += 1;
                CmpOp::Lt
            }
            (Some('>'), _) => {
                self.pos += 1;
                CmpOp::Gt
            }
            (Some('='), _) => {
                self.pos += 1;
                CmpOp::Eq
            }
            _ => return Ok(lhs),
        };
        let rhs = self.parse_primary()?;
        Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_primary(&mut self) -> Result<Expr, SparqlParseError> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect(')')?;
                Ok(e)
            }
            Some('!') => {
                self.pos += 1;
                Ok(Expr::Not(Box::new(self.parse_primary()?)))
            }
            Some('?') => {
                self.pos += 1;
                Ok(Expr::Var(self.parse_name()?))
            }
            Some('"') | Some('\'') => Ok(Expr::Const(self.parse_string_literal()?)),
            Some(c) if c.is_ascii_digit() || c == '-' => {
                Ok(Expr::Const(self.parse_numeric_literal()?))
            }
            Some('<') => Ok(Expr::Const(Term::iri(self.parse_iriref()?))),
            Some(_) => {
                if self.keyword("STR") {
                    self.expect('(')?;
                    let e = self.parse_expr()?;
                    self.expect(')')?;
                    Ok(Expr::Str(Box::new(e)))
                } else {
                    Err(self.err(format!(
                        "unexpected token in expression near '{}'",
                        &self.text[self.text.len().min(self.pos)..]
                            .chars()
                            .take(12)
                            .collect::<String>()
                    )))
                }
            }
            None => Err(self.err("unexpected end of expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure6_shape() {
        let q = parse_select(
            r#"
            PREFIX predURI: <http://galo/qep/property/>
            SELECT ?pop_Q3 ?pop_6 ?pop_4
            WHERE {
              ?pop_Q3 predURI:hasLowerRowSize ?ih1 .
              FILTER ( ?ih1 <= 8) .
              ?pop_Q3 predURI:hasHigherRowSize ?ih2 .
              FILTER ( ?ih2 >= 8) .
              FILTER (STR(?pop_6) > STR(?pop_8)) .
              ?pop_Q3 predURI:hasOutputStream ?pop_6 .
              ?pop_6 predURI:hasOutputStream ?pop_4 .
            }"#,
        )
        .unwrap();
        assert_eq!(q.vars, vec!["pop_Q3", "pop_6", "pop_4"]);
        assert_eq!(q.patterns.len(), 4);
        assert_eq!(q.filters.len(), 3);
        assert_eq!(
            q.patterns[0].path.iri().as_iri(),
            Some("http://galo/qep/property/hasLowerRowSize")
        );
    }

    #[test]
    fn parses_property_path_plus() {
        let q =
            parse_select("SELECT ?a WHERE { ?a <http://galo/qep/property/hasOutputStream>+ ?b . }")
                .unwrap();
        assert!(matches!(q.patterns[0].path, PathPattern::Plus(_)));
    }

    #[test]
    fn parses_select_star_distinct_order_limit() {
        let q = parse_select("SELECT DISTINCT * WHERE { ?s <http://p> ?o . } ORDER BY ?s LIMIT 10")
            .unwrap();
        assert!(q.distinct);
        assert!(q.vars.is_empty());
        assert_eq!(q.order_by.as_deref(), Some("s"));
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_bare_word_literal_object() {
        // Paper §3.1 writes object literals bare: "...hasPopType>NLJOIN".
        let q =
            parse_select("SELECT ?s WHERE { ?s <http://galo/qep/property/hasPopType> NLJOIN . }")
                .unwrap();
        assert_eq!(
            q.patterns[0].object,
            TermPattern::Ground(Term::lit("NLJOIN"))
        );
    }

    #[test]
    fn parses_insert_data() {
        let u = parse_update(
            r#"INSERT DATA {
                <http://galo/qep/pop/5> <http://galo/qep/property/hasLowerCardinality> "19771" .
                <http://galo/qep/pop/5> <http://galo/qep/property/hasHigherCardinality> "128500" .
            }"#,
        )
        .unwrap();
        match u {
            Update::InsertData(ts) => assert_eq!(ts.len(), 2),
            other => panic!("wrong update: {other:?}"),
        }
    }

    #[test]
    fn parses_delete_where() {
        // ?p in predicate position is not part of the subset — predicates
        // must be IRIs.
        parse_update("DELETE WHERE { ?s ?p ?o . }").unwrap_err();
        let ok = parse_update("DELETE WHERE { ?s <http://p> ?o . }").unwrap();
        assert!(matches!(ok, Update::DeleteWhere(ps) if ps.len() == 1));
    }

    #[test]
    fn insert_data_rejects_variables() {
        let e = parse_update("INSERT DATA { ?s <http://p> \"v\" . }").unwrap_err();
        assert!(e.message.contains("ground"));
    }

    #[test]
    fn numeric_literals_with_exponent() {
        let q = parse_select("SELECT ?s WHERE { ?s <http://p> 1.441e+06 . }").unwrap();
        assert_eq!(
            q.patterns[0].object,
            TermPattern::Ground(Term::lit("1.441e+06"))
        );
    }

    #[test]
    fn filter_boolean_combinators() {
        let q = parse_select(
            "SELECT ?x WHERE { ?x <http://p> ?v . FILTER(?v >= 1 && ?v <= 9 || !(?v = 5)) }",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 1);
        assert!(matches!(q.filters[0], Expr::Or(_, _)));
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let e = parse_select("SELECT ?s WHERE { ?s bad:prop ?o . }").unwrap_err();
        assert!(e.message.contains("unknown prefix"));
    }
}
