//! # cqa-index — multidimensional indexing for CQA/CDB
//!
//! §5 of the paper studies *multi-attribute indexing systems* for constraint
//! databases: should the attributes of a relation share one multidimensional
//! index, or should each attribute get its own one-dimensional index? This
//! crate implements both strategies over a from-scratch **R\*-tree**
//! (Beckmann et al., the paper's \[2\]) and the instrumentation to compare
//! them by the paper's metric — the number of disk (node) accesses:
//!
//! * [`Rect`] — axis-aligned boxes in `D` dimensions (`D = 1` gives the
//!   intervals a constraint attribute's projection denotes);
//! * [`RStarTree`] — insertion with forced reinsertion and the R\* split,
//!   and access-counted range search;
//! * [`bulk`] — bottom-up sort-tile-recursive (STR) packing, which the
//!   catalog's relation indexes are built by;
//! * [`strategy`] — [`JointIndex`](strategy::JointIndex) vs
//!   [`SeparateIndices`](strategy::SeparateIndices), the two §5.4
//!   configurations;
//! * [`advisor`] — a heuristic for the paper's open problem: choosing which
//!   attribute subsets to index together, given a workload.
//!
//! No entry is ever removed: a relation changes only by replacement,
//! which drops its indexes, so a tree is built by packing or insertion
//! and then only searched.

pub mod advisor;
pub mod bulk;
pub mod rect;
pub mod rstar;
pub mod strategy;

pub use rect::Rect;
pub use rstar::{RStarParams, RStarTree};
