//! # galo-sql
//!
//! The SQL layer of the GALO reproduction: a conjunctive select-project-join
//! query model ([`Query`]), a small parser ([`parse`]), and the sub-query
//! projection machinery the learning and matching engines share
//! ([`subqueries`], [`structure_signature`]).

pub mod ast;
pub mod estimate;
pub mod parser;
pub mod subquery;

pub use ast::{CmpOp, ColRef, JoinPred, LocalPred, PredKind, Query, TableRef};
pub use estimate::{local_selectivity, CardEstimator, KeyPair, View};
pub use parser::{parse, ParseError};
pub use subquery::{connected_subsets, project, structure_signature, subqueries};

#[cfg(test)]
mod proptests;
