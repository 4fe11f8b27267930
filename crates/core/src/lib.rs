//! # cqa-core — the heterogeneous data model and the Constraint Query
//! Algebra
//!
//! This crate is the paper's primary contribution: CQA/CDB's *middle layer*
//! (Figure 1) between the user-facing query language and the disk-access
//! layer.
//!
//! ## The heterogeneous data model (§3)
//!
//! §3.1 exhibits the **missing attribute inconsistency** (Proposition 1):
//! under the pure constraint model a tuple that does not mention an
//! attribute admits *all* domain values for it (broad semantics), while the
//! relational model treats a missing value as a null distinct from every
//! domain value (narrow semantics). CQA/CDB resolves the inconsistency by
//! extending the schema with a **C/R flag** per attribute
//! ([`AttrKind`]): constraint attributes get broad semantics, relational
//! attributes narrow semantics. [`Schema`], [`Tuple`], and [`HRelation`]
//! implement the resulting model; the claim of §3.2 — full upward
//! compatibility with the relational model — is checked in the
//! `upward_compat` integration tests against the [`relational`] reference
//! engine.
//!
//! ## The Constraint Query Algebra (§2.4)
//!
//! The six primitive operators — [`ops::select`], [`ops::project`],
//! [`ops::join`] (natural join), [`ops::union`], [`ops::rename`],
//! [`ops::difference`] — are implemented syntactically over constraint
//! tuples, with correctness stated against the semantic (set-of-points)
//! layer per the closure principle (§2.5). Projection uses exact quantifier
//! elimination; difference uses DNF negation.
//!
//! ## Queries as plans
//!
//! [`Plan`] is the algebra's AST, [`exec`] evaluates plans against a
//! [`Catalog`], [`optimizer`] performs the classical algebraic rewrites
//! (select merging and pushdown), and [`safety`] enforces the §2.4 closure
//! requirement — rejecting, e.g., the raw `distance` operator while
//! accepting the whole-feature operators of §4.

pub mod catalog;
pub mod error;
pub mod exec;
pub mod governor;
pub mod indefinite;
pub mod ops;
pub mod optimizer;
pub mod par;
pub mod persist;
pub mod plan;
pub mod relational;
pub mod relation;
pub mod safety;
pub mod schema;
pub mod spatial_bridge;
pub mod tuple;
pub mod value;

pub use catalog::Catalog;
pub use error::{CoreError, Result};
pub use governor::{Budgets, Governor};
pub use par::{ExecCounter, ExecOptions, ExecStats};
pub use plan::{Plan, Selection};
pub use relation::HRelation;
pub use schema::{AttrDef, AttrKind, AttrType, Schema};
pub use tuple::Tuple;
pub use value::Value;
