//! A small SQL parser for the conjunctive SPJ fragment.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT ( '*' | colref (',' colref)* )
//!            FROM table [alias] (',' table [alias])*
//!            [WHERE pred (AND pred)*]
//! pred    := colref '=' colref                 -- equi-join
//!          | colref cmp literal                -- local comparison
//!          | colref BETWEEN literal AND literal
//!          | colref IS [NOT] NULL
//!          | colref IN '(' literal (',' literal)* ')'
//! colref  := [qualifier '.'] identifier
//! literal := integer | float | 'string' | NULL
//! ```
//!
//! Column references are resolved against a [`Database`] catalog: an
//! unqualified column name must be unique across the FROM tables, a
//! qualified one may use either the alias or the base-table name. A FROM
//! list holds at most [`MAX_TABLE_REFS`] table references.

use std::fmt;

use galo_catalog::{Database, Value};

use crate::ast::{CmpOp, ColRef, JoinPred, LocalPred, PredKind, Query, TableRef, MAX_TABLE_REFS};

/// Parse error with a human-readable message and token position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SQL parse error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(char), // , . ( ) *
    Op(CmpOp),
}

fn keyword(t: &Token, kw: &str) -> bool {
    matches!(t, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
}

fn lex(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            ',' | '.' | '(' | ')' | '*' => {
                tokens.push(Token::Symbol(c));
                i += 1;
            }
            '=' => {
                tokens.push(Token::Op(CmpOp::Eq));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Op(CmpOp::Le));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&'>') {
                    return Err(ParseError {
                        message: "'<>' is not supported in this fragment".into(),
                        position: tokens.len(),
                    });
                } else {
                    tokens.push(Token::Op(CmpOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Op(CmpOp::Ge));
                    i += 2;
                } else {
                    tokens.push(Token::Op(CmpOp::Gt));
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some('\'') if bytes.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&c) => {
                            s.push(c);
                            i += 1;
                        }
                        None => {
                            return Err(ParseError {
                                message: "unterminated string literal".into(),
                                position: tokens.len(),
                            })
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || (bytes[i] == '.'
                            && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    if bytes[i] == '.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                if is_float {
                    tokens.push(Token::Float(text.parse().map_err(|_| ParseError {
                        message: format!("bad float literal '{text}'"),
                        position: tokens.len(),
                    })?));
                } else {
                    tokens.push(Token::Int(text.parse().map_err(|_| ParseError {
                        message: format!("bad integer literal '{text}'"),
                        position: tokens.len(),
                    })?));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(bytes[start..i].iter().collect()));
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character '{other}'"),
                    position: tokens.len(),
                })
            }
        }
    }
    Ok(tokens)
}

/// Parse SQL text into a [`Query`], resolving identifiers against `db`.
pub fn parse(db: &Database, name: &str, sql: &str) -> Result<Query, ParseError> {
    let tokens = lex(sql)?;
    Parser { db, tokens, pos: 0 }.parse_query(name)
}

struct Parser<'a> {
    db: &'a Database,
    tokens: Vec<Token>,
    pos: usize,
}

/// Column reference before resolution: optional qualifier + name.
#[derive(Debug, Clone)]
struct RawCol {
    qualifier: Option<String>,
    name: String,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(ref t) if keyword(t, kw) => Ok(()),
            other => Err(self.err(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn accept_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| keyword(t, kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn accept_symbol(&mut self, c: char) -> bool {
        if self.peek() == Some(&Token::Symbol(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_query(mut self, name: &str) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let mut raw_projections: Vec<RawCol> = Vec::new();
        if self.accept_symbol('*') {
            // SELECT * — empty projection list.
        } else {
            loop {
                raw_projections.push(self.raw_col()?);
                if !self.accept_symbol(',') {
                    break;
                }
            }
        }
        self.expect_keyword("FROM")?;

        let mut tables: Vec<TableRef> = Vec::new();
        loop {
            if tables.len() == MAX_TABLE_REFS {
                return Err(self.err(format!(
                    "more than {MAX_TABLE_REFS} table references in FROM"
                )));
            }
            let tname = self.ident()?;
            let table = self
                .db
                .table_id(&tname)
                .ok_or_else(|| self.err(format!("unknown table '{tname}'")))?;
            // Optional alias: an identifier that is not a clause keyword.
            let alias = match self.peek() {
                Some(Token::Ident(s))
                    if !s.eq_ignore_ascii_case("WHERE") && !s.eq_ignore_ascii_case("AS") =>
                {
                    Some(self.ident()?)
                }
                Some(t) if keyword(t, "AS") => {
                    self.pos += 1;
                    Some(self.ident()?)
                }
                _ => None,
            };
            let qualifier = alias.unwrap_or_else(|| format!("Q{}", tables.len() + 1));
            tables.push(TableRef { table, qualifier });
            if !self.accept_symbol(',') {
                break;
            }
        }

        let mut joins: Vec<JoinPred> = Vec::new();
        let mut locals: Vec<LocalPred> = Vec::new();
        if self.accept_keyword("WHERE") {
            loop {
                self.parse_predicate(&tables, &mut joins, &mut locals)?;
                if !self.accept_keyword("AND") {
                    break;
                }
            }
        }
        if self.pos != self.tokens.len() {
            return Err(self.err("trailing tokens after query"));
        }

        let projections = raw_projections
            .into_iter()
            .map(|rc| self.resolve(&tables, &rc))
            .collect::<Result<Vec<_>, _>>()?;

        Ok(Query {
            name: name.to_string(),
            tables,
            joins,
            locals,
            projections,
        })
    }

    fn raw_col(&mut self) -> Result<RawCol, ParseError> {
        let first = self.ident()?;
        if self.accept_symbol('.') {
            let name = self.ident()?;
            Ok(RawCol {
                qualifier: Some(first),
                name,
            })
        } else {
            Ok(RawCol {
                qualifier: None,
                name: first,
            })
        }
    }

    /// Resolve a raw column against the FROM list: by alias, by base-table
    /// name, or (unqualified) by uniqueness across all FROM tables.
    fn resolve(&self, tables: &[TableRef], rc: &RawCol) -> Result<ColRef, ParseError> {
        if let Some(q) = &rc.qualifier {
            for (idx, tref) in tables.iter().enumerate() {
                let matches_alias = tref.qualifier.eq_ignore_ascii_case(q);
                let matches_name = self.db.table(tref.table).name.eq_ignore_ascii_case(q);
                if matches_alias || matches_name {
                    if let Some(cid) = self.db.table(tref.table).column_id(&rc.name) {
                        return Ok(ColRef {
                            table_idx: idx,
                            column: cid,
                        });
                    }
                }
            }
            Err(self.err(format!("column '{}.{}' not found", q, rc.name)))
        } else {
            let mut found: Option<ColRef> = None;
            for (idx, tref) in tables.iter().enumerate() {
                if let Some(cid) = self.db.table(tref.table).column_id(&rc.name) {
                    if found.is_some() {
                        return Err(self.err(format!("ambiguous column '{}'", rc.name)));
                    }
                    found = Some(ColRef {
                        table_idx: idx,
                        column: cid,
                    });
                }
            }
            found.ok_or_else(|| self.err(format!("column '{}' not found", rc.name)))
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Float(f)) => Ok(Value::Float(f)),
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            Some(ref t) if keyword(t, "NULL") => Ok(Value::Null),
            other => Err(self.err(format!("expected literal, found {other:?}"))),
        }
    }

    fn parse_predicate(
        &mut self,
        tables: &[TableRef],
        joins: &mut Vec<JoinPred>,
        locals: &mut Vec<LocalPred>,
    ) -> Result<(), ParseError> {
        let lhs_raw = self.raw_col()?;
        let lhs = self.resolve(tables, &lhs_raw)?;

        if self.accept_keyword("BETWEEN") {
            let lo = self.literal()?;
            self.expect_keyword("AND")?;
            let hi = self.literal()?;
            locals.push(LocalPred {
                col: lhs,
                kind: PredKind::Between(lo, hi),
            });
            return Ok(());
        }
        if self.accept_keyword("IS") {
            let negated = self.accept_keyword("NOT");
            self.expect_keyword("NULL")?;
            if negated {
                return Err(self.err("IS NOT NULL is not supported in this fragment"));
            }
            locals.push(LocalPred {
                col: lhs,
                kind: PredKind::IsNull,
            });
            return Ok(());
        }
        if self.accept_keyword("IN") {
            if !self.accept_symbol('(') {
                return Err(self.err("expected '(' after IN"));
            }
            let mut vals = vec![self.literal()?];
            while self.accept_symbol(',') {
                vals.push(self.literal()?);
            }
            if !self.accept_symbol(')') {
                return Err(self.err("expected ')' closing IN list"));
            }
            locals.push(LocalPred {
                col: lhs,
                kind: PredKind::InList(vals),
            });
            return Ok(());
        }

        let op = match self.next() {
            Some(Token::Op(op)) => op,
            other => return Err(self.err(format!("expected comparison operator, found {other:?}"))),
        };

        // Join predicate or local comparison, depending on the RHS shape.
        match self.peek() {
            Some(Token::Ident(_)) => {
                let rhs_raw = self.raw_col()?;
                let rhs = self.resolve(tables, &rhs_raw)?;
                if op != CmpOp::Eq {
                    return Err(self.err("only equi-joins are supported between columns"));
                }
                if lhs.table_idx == rhs.table_idx {
                    return Err(self.err("self-comparison within one table instance"));
                }
                joins.push(JoinPred {
                    left: lhs,
                    right: rhs,
                });
            }
            _ => {
                let v = self.literal()?;
                locals.push(LocalPred {
                    col: lhs,
                    kind: PredKind::Cmp(op, v),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};

    fn mini_db() -> Database {
        let mut b = DatabaseBuilder::new("mini", SystemConfig::default_1gb());
        b.add_table(
            Table::new(
                "WEB_SALES",
                vec![
                    col("WS_ITEM_SK", ColumnType::Integer),
                    col("WS_SOLD_DATE_SK", ColumnType::Integer),
                ],
            ),
            719_384,
            vec![
                ColumnStats::uniform(18_000, 0.0, 18_000.0, 4),
                ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
            ],
        );
        b.add_table(
            Table::new(
                "ITEM",
                vec![
                    col("I_ITEM_SK", ColumnType::Integer),
                    col("I_CATEGORY", ColumnType::Varchar(50)),
                    col("I_CURRENT_PRICE", ColumnType::Decimal),
                ],
            ),
            18_000,
            vec![
                ColumnStats::uniform(18_000, 0.0, 18_000.0, 4),
                ColumnStats::uniform(10, 0.0, 1e6, 25),
                ColumnStats::uniform(9_000, 0.0, 1_000.0, 8),
            ],
        );
        b.add_table(
            Table::new(
                "DATE_DIM",
                vec![
                    col("D_DATE_SK", ColumnType::Integer),
                    col("D_DATE", ColumnType::Date),
                ],
            ),
            73_049,
            vec![
                ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
                ColumnStats::uniform(73_049, 0.0, 73_049.0, 4),
            ],
        );
        b.build()
    }

    #[test]
    fn parses_paper_figure_3_query() {
        let db = mini_db();
        let q = parse(
            &db,
            "fig3",
            "SELECT i_category, i_current_price \
             FROM web_sales, item, date_dim \
             WHERE ws_item_sk = i_item_sk AND i_category = 'Jewelry' \
             AND ws_sold_date_sk = d_date_sk AND d_date = 16802",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 3);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.locals.len(), 2);
        assert_eq!(q.tables[0].qualifier, "Q1");
        assert!(q.is_connected());
    }

    #[test]
    fn aliases_resolve_qualified_columns() {
        let db = mini_db();
        let q = parse(
            &db,
            "alias",
            "SELECT a.ws_item_sk FROM web_sales a, item b WHERE a.ws_item_sk = b.i_item_sk",
        )
        .unwrap();
        assert_eq!(q.tables[0].qualifier, "a");
        assert_eq!(q.projections.len(), 1);
        assert_eq!(q.projections[0].table_idx, 0);
    }

    #[test]
    fn self_join_distinguishes_instances() {
        let db = mini_db();
        let q = parse(
            &db,
            "selfjoin",
            "SELECT q1.ws_item_sk FROM web_sales q1, web_sales q2 \
             WHERE q1.ws_item_sk = q2.ws_item_sk",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1);
        assert_ne!(q.joins[0].left.table_idx, q.joins[0].right.table_idx);
    }

    #[test]
    fn between_in_isnull_predicates() {
        let db = mini_db();
        let q = parse(
            &db,
            "preds",
            "SELECT * FROM item WHERE i_current_price BETWEEN 10 AND 99.5 \
             AND i_category IN ('Music', 'Jewelry') AND i_category IS NULL",
        )
        .unwrap();
        assert_eq!(q.locals.len(), 3);
        assert!(matches!(q.locals[0].kind, PredKind::Between(_, _)));
        assert!(matches!(q.locals[1].kind, PredKind::InList(ref v) if v.len() == 2));
        assert!(matches!(q.locals[2].kind, PredKind::IsNull));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let db = mini_db();
        // d_date_sk exists once; ws_item_sk once — craft ambiguity via
        // a self join where the unqualified name matches both instances.
        let e = parse(
            &db,
            "amb",
            "SELECT * FROM web_sales q1, web_sales q2 WHERE ws_item_sk = 5",
        )
        .unwrap_err();
        assert!(e.message.contains("ambiguous"));
    }

    #[test]
    fn unknown_table_and_column_rejected() {
        let db = mini_db();
        assert!(parse(&db, "t", "SELECT * FROM nonexistent").is_err());
        let e = parse(&db, "t", "SELECT bogus FROM item").unwrap_err();
        assert!(e.message.contains("not found"));
    }

    #[test]
    fn non_equi_join_between_columns_rejected() {
        let db = mini_db();
        let e = parse(
            &db,
            "t",
            "SELECT * FROM web_sales, item WHERE ws_item_sk < i_item_sk",
        )
        .unwrap_err();
        assert!(e.message.contains("equi-join"));
    }

    #[test]
    fn sql_roundtrip_reparses_to_same_query() {
        let db = mini_db();
        let q = parse(
            &db,
            "rt",
            "SELECT i_category FROM web_sales, item \
             WHERE ws_item_sk = i_item_sk AND i_category = 'Jewelry' \
             AND i_current_price BETWEEN 5 AND 10",
        )
        .unwrap();
        let sql = q.to_sql(&db);
        let q2 = parse(&db, "rt", &sql).unwrap();
        assert_eq!(q.tables, q2.tables);
        assert_eq!(q.joins, q2.joins);
        assert_eq!(q.locals, q2.locals);
    }

    #[test]
    fn string_literal_escapes() {
        let db = mini_db();
        let q = parse(
            &db,
            "esc",
            "SELECT * FROM item WHERE i_category = 'Women''s'",
        )
        .unwrap();
        assert!(matches!(
            &q.locals[0].kind,
            PredKind::Cmp(CmpOp::Eq, Value::Str(s)) if s == "Women's"
        ));
    }
}
