//! The six primitive CQA operators (§2.4), reinterpreted over the
//! heterogeneous data model of §3.
//!
//! Each operator is syntactic — it manipulates finite constraint
//! representations — and correct with respect to the semantic layer: its
//! output denotes exactly the point set the equivalent relational-algebra
//! operation would produce on the (possibly infinite) extents. That is the
//! closure principle of §2.5, and the property-based integration tests
//! check it pointwise.

mod difference;
mod join;
mod project;
mod rename;
pub(crate) mod select;
mod union;

pub use difference::difference;
pub use join::join;
pub use project::project;
pub use rename::rename;
pub use select::{select, CmpOp, Predicate, Selection};
pub use union::union;
