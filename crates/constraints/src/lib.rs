//! # cqa-constraints — the finite-representation layer of CQA/CDB
//!
//! The constraint database framework (Kanellakis–Kuper–Revesz, summarized in
//! §2 of the paper) replaces finite relations by *finitely representable*
//! ones: a constraint tuple is a conjunction of constraints over the tuple's
//! attributes, and a constraint relation is a disjunction (DNF) of such
//! conjunctions. This crate implements that representation for the class of
//! **rational linear constraints** — the class CQA/CDB chose for query
//! evaluation efficiency — together with the decision procedures the
//! Constraint Query Algebra needs:
//!
//! * [`LinExpr`] — linear expressions with exact rational coefficients;
//! * [`Atom`] — atomic constraints `e = 0`, `e ≤ 0`, `e < 0`;
//! * [`Conjunction`] — a constraint tuple: satisfiability, entailment,
//!   simplification, evaluation, and **variable elimination** (projection)
//!   via Gaussian substitution of equalities followed by Fourier–Motzkin;
//! * [`Dnf`] — a constraint relation body: closure under union,
//!   intersection, negation (for the difference operator) and projection;
//! * [`Budget`] — optional ceilings and counters for elimination and DNF
//!   expansion, taken by every algorithm that can blow up;
//! * [`Interval`] / bounding boxes — the bridge to multidimensional
//!   indexing (§5 of the paper);
//! * [`denseorder`] — a second constraint class (dense order with
//!   constants, the Ferrante–Geiser theory) demonstrating that the
//!   framework, per §2.3, "encompasses all classes of constraints".
//!
//! Everything here operates on the *syntactic* layer; the semantic
//! (possibly infinite set-of-points) layer only ever appears through
//! [`Assignment`] evaluation, mirroring the closure principle of §2.5.

mod assignment;
mod atom;
mod budget;
mod conj;
pub mod denseorder;
mod dnf;
pub mod fourier_motzkin;
mod interval;
mod linexpr;
mod quickbox;
mod var;

pub use assignment::Assignment;
pub use atom::{Atom, Rel};
pub use budget::{Budget, BudgetExceeded};
pub use conj::Conjunction;
pub use dnf::Dnf;
pub use interval::{Bound, Interval};
pub use linexpr::LinExpr;
pub use quickbox::{BoxSeed, QuickBox};
pub use var::Var;
