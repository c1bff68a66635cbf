//! SPARQL subset: AST, parser and evaluator.

pub mod ast;
pub mod eval;
pub mod parser;

pub use ast::{CmpOp, Expr, PathPattern, SelectQuery, TermPattern, TriplePattern, Update};
pub use eval::{apply_update, evaluate, evaluate_seeded, projected_vars, ResultSet};
pub use parser::{parse_select, parse_update, SparqlParseError};
