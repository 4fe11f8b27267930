//! Heterogeneous relations: a schema plus a finite set of tuples.
//!
//! Per Definition 2 the relation's formula is the disjunction of its
//! tuples' formulas; its semantics is the (possibly infinite) set of points
//! satisfying that formula, with the C/R flag of §3.2 deciding the
//! missing-attribute reading per attribute.

use crate::error::Result;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A heterogeneous relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HRelation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl HRelation {
    /// An empty relation.
    pub fn new(schema: Schema) -> HRelation {
        HRelation { schema, tuples: Vec::new() }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of (syntactic) tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Appends a tuple (callers build it against this relation's schema).
    pub fn insert(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
    }

    /// Appends a tuple built by the given closure.
    pub fn insert_with(
        &mut self,
        f: impl FnOnce(crate::tuple::TupleBuilder<'_>) -> crate::tuple::TupleBuilder<'_>,
    ) -> Result<()> {
        let t = f(Tuple::builder(&self.schema)).build()?;
        self.tuples.push(t);
        Ok(())
    }

    /// Point membership: some tuple contains the point.
    pub fn contains_point(&self, point: &[Value]) -> Result<bool> {
        for t in &self.tuples {
            if t.contains_point(&self.schema, point)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Removes structurally duplicate tuples (canonical atom storage makes
    /// structural equality a sound approximation of semantic equality).
    pub fn dedup(&mut self) {
        let mut seen: BTreeSet<&Tuple> = BTreeSet::new();
        let first: Vec<bool> = self.tuples.iter().map(|t| seen.insert(t)).collect();
        let mut first = first.into_iter();
        self.tuples.retain(|_| first.next().expect("one flag per tuple"));
    }

    /// Drops tuples whose constraint part is unsatisfiable.
    pub fn drop_unsatisfiable(&mut self) {
        self.tuples.retain(|t| t.is_satisfiable());
    }

    /// Builds from parts (operators use this).
    pub(crate) fn from_parts(schema: Schema, tuples: Vec<Tuple>) -> HRelation {
        HRelation { schema, tuples }
    }
}

impl fmt::Display for HRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {}", t.display(&self.schema))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;

    #[test]
    fn insert_and_membership() {
        let schema = Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_con("x")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("id", "a").range("x", 0, 10)).unwrap();
        r.insert_with(|b| b.set("id", "b").range("x", 20, 30)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains_point(&[Value::str("a"), Value::int(5)]).unwrap());
        assert!(r.contains_point(&[Value::str("b"), Value::int(25)]).unwrap());
        assert!(!r.contains_point(&[Value::str("a"), Value::int(25)]).unwrap());
    }

    #[test]
    fn dedup_and_drop_unsat() {
        let schema = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.range("x", 0, 1)).unwrap();
        r.insert_with(|b| b.range("x", 0, 1)).unwrap();
        r.insert_with(|b| b.range("x", 5, 2)).unwrap(); // unsatisfiable
        r.dedup();
        assert_eq!(r.len(), 2);
        r.drop_unsatisfiable();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn display_lists_tuples() {
        let schema = Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_con("x")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("id", "a").range("x", 0, 1)).unwrap();
        let shown = r.to_string();
        assert!(shown.contains("id = \"a\""), "{}", shown);
    }
}
