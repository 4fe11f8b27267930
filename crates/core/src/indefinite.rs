//! Indefinite (incomplete) information — the *other* reading of
//! constraints.
//!
//! §3.1 of the paper: "Incomplete information can be specified by
//! constraints … The semantics is **disjunctive** rather than conjunctive;
//! **one** of the values satisfying the constraints is correct, rather
//! than all of them, as for constraint tuples." (citing Koubarakis, the
//! paper's \[20\]).
//!
//! An [`IndefiniteRelation`] holds tuples whose constraint part describes
//! the *candidate values* of an under-specified record — "the meeting is
//! some time between 2 and 4" — rather than an extended object. Queries
//! therefore have two answers:
//!
//! * the **possible** answer: tuples for which *some* candidate value
//!   satisfies the condition (`φ ∧ ξ` satisfiable);
//! * the **certain** answer: tuples for which *every* candidate value does
//!   (`φ ⊨ ξ`, checked by exact entailment).
//!
//! Certain ⊆ possible always; they coincide exactly when the tuple is
//! fully definite (a single point). Both are computed with the same
//! machinery the conjunctive model uses — satisfiability and entailment
//! over the linear theory — which is the point: the framework carries the
//! second semantics for free.

use crate::error::{CoreError, Result};
use crate::ops::select::{resolve, Applied, Selection};
use crate::par::{ExecOptions, ExecStats};
use crate::relation::HRelation;
use crate::schema::Schema;
use crate::value::Value;
use cqa_constraints::{Atom, Budget};

/// A relation under the disjunctive (indefinite) reading.
///
/// Structurally identical to [`HRelation`]; the wrapper fixes the
/// *interpretation* of each tuple's constraint part as a set of candidate
/// worlds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndefiniteRelation {
    inner: HRelation,
}

impl IndefiniteRelation {
    /// Wraps a heterogeneous relation in the indefinite reading.
    pub fn new(inner: HRelation) -> IndefiniteRelation {
        IndefiniteRelation { inner }
    }

    /// The underlying relation (conjunctive reading).
    pub fn as_definite(&self) -> &HRelation {
        &self.inner
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    /// Number of (indefinite) tuples.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The **possible** answer to `ς_ξ`: tuples some candidate world of
    /// which satisfies the selection. This coincides with the conjunctive
    /// model's select (satisfiability of the conjunction), with the
    /// residual narrowing the candidates that remain possible.
    pub fn possible_select(&self, selection: &Selection) -> Result<IndefiniteRelation> {
        let selected =
            crate::ops::select(&self.inner, selection, &ExecOptions::default(), &ExecStats::new())?;
        Ok(IndefiniteRelation::new(selected))
    }

    /// The **certain** answer to `ς_ξ`: tuples every candidate world of
    /// which satisfies the selection. A predicate holds in every world
    /// when it reduces to true on the tuple, or when the tuple's
    /// constraint part entails its residual atom.
    pub fn certain_select(&self, selection: &Selection) -> Result<IndefiniteRelation> {
        let resolved = resolve(self.schema(), selection)?;
        let mut out = HRelation::new(self.schema().clone());
        'tuples: for tuple in self.inner.tuples() {
            if !tuple.is_satisfiable() {
                continue; // no candidate worlds at all
            }
            for pred in &resolved {
                let always = match pred.apply(tuple) {
                    Applied::Reject => false,
                    Applied::Accept => true,
                    Applied::Residual(atom) => {
                        tuple.constraint().implies_atom(&atom, &Budget::default())?
                    }
                };
                if !always {
                    continue 'tuples;
                }
            }
            out.insert(tuple.clone());
        }
        Ok(IndefiniteRelation::new(out))
    }

    /// Whether the point is **certainly** in the relation: some tuple's
    /// candidate set is exactly this point (its only possible world).
    pub fn certainly_contains(&self, point: &[Value]) -> Result<bool> {
        for tuple in self.inner.tuples() {
            if !tuple.contains_point(self.schema(), point)? {
                continue;
            }
            // The point is a candidate world; certain iff it is the only
            // one: pinning every constraint attribute to the point must be
            // *entailed* by φ.
            let mut certain = true;
            for i in self.schema().constraint_positions() {
                let v = point[i].as_rat().ok_or(CoreError::TypeMismatch {
                    attribute: self.schema().attrs()[i].name.clone(),
                    expected: "rational",
                })?;
                let atom = Atom::var_eq_const(self.schema().var(i), v.clone());
                if !tuple.constraint().implies_atom(&atom, &Budget::default())? {
                    certain = false;
                    break;
                }
            }
            if certain {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Whether the point is **possibly** in the relation (some candidate
    /// world of some tuple is this point) — the conjunctive membership.
    pub fn possibly_contains(&self, point: &[Value]) -> Result<bool> {
        self.inner.contains_point(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::CmpOp;
    use crate::schema::AttrDef;
    use cqa_num::Rat;

    /// Meetings whose start time is under-specified.
    fn meetings() -> IndefiniteRelation {
        let schema =
            Schema::new(vec![AttrDef::str_rel("what"), AttrDef::rat_con("start")]).unwrap();
        let mut r = HRelation::new(schema);
        // "standup is at 9" — fully definite.
        r.insert_with(|b| b.set("what", "standup").pin("start", Rat::from_int(9))).unwrap();
        // "review is some time between 14 and 16".
        r.insert_with(|b| b.set("what", "review").range("start", 14, 16)).unwrap();
        // "retro is some time after 15" (unbounded candidates).
        r.insert_with(|b| {
            use cqa_constraints::{Atom, LinExpr, Var};
            b.set("what", "retro")
                .atom(Atom::ge(LinExpr::var(Var(1)), LinExpr::constant_int(15)))
        })
        .unwrap();
        IndefiniteRelation::new(r)
    }

    fn names(r: &IndefiniteRelation) -> Vec<&str> {
        let mut out: Vec<&str> = r
            .as_definite()
            .tuples()
            .iter()
            .filter_map(|t| t.value(0).and_then(|v| v.as_str()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn possible_vs_certain_select() {
        let r = meetings();
        let afternoon = Selection::all().cmp_int("start", CmpOp::Ge, 14);
        // Possibly in the afternoon: review (could be 14–16) and retro.
        let possible = r.possible_select(&afternoon).unwrap();
        assert_eq!(names(&possible), vec!["retro", "review"]);
        // Certainly in the afternoon: both too — review is within [14,16],
        // retro after 15; the standup at 9 is certainly not.
        let certain = r.certain_select(&afternoon).unwrap();
        assert_eq!(names(&certain), vec!["retro", "review"]);

        let after_15 = Selection::all().cmp_int("start", CmpOp::Gt, 15);
        // Review might be at 15:30 (possible) but might be at 14 (not
        // certain); retro's candidates include exactly 15, so Gt is not
        // certain either.
        assert_eq!(names(&r.possible_select(&after_15).unwrap()), vec!["retro", "review"]);
        assert_eq!(names(&r.certain_select(&after_15).unwrap()), Vec::<&str>::new());

        let at_9 = Selection::all().cmp_int("start", CmpOp::Eq, 9);
        // Only the definite standup is certain at 9.
        assert_eq!(names(&r.certain_select(&at_9).unwrap()), vec!["standup"]);
    }

    #[test]
    fn certain_is_subset_of_possible() {
        let r = meetings();
        for threshold in [8, 10, 14, 15, 16, 17] {
            for op in [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq] {
                let sel = Selection::all().cmp_int("start", op, threshold);
                let certain = r.certain_select(&sel).unwrap();
                let possible = r.possible_select(&sel).unwrap();
                for name in names(&certain) {
                    assert!(
                        names(&possible).contains(&name),
                        "{:?} certain but not possible for {} {}",
                        name,
                        op,
                        threshold
                    );
                }
            }
        }
    }

    #[test]
    fn membership_readings() {
        let r = meetings();
        let review_at_15 = [Value::str("review"), Value::int(15)];
        assert!(r.possibly_contains(&review_at_15).unwrap());
        assert!(!r.certainly_contains(&review_at_15).unwrap(), "15 is one of many candidates");
        let standup_at_9 = [Value::str("standup"), Value::int(9)];
        assert!(r.possibly_contains(&standup_at_9).unwrap());
        assert!(r.certainly_contains(&standup_at_9).unwrap(), "the only candidate");
        let standup_at_10 = [Value::str("standup"), Value::int(10)];
        assert!(!r.possibly_contains(&standup_at_10).unwrap());
    }

    /// Meetings with a relational `room`, one of them null, and an
    /// under-specified constraint `start`.
    fn booked() -> IndefiniteRelation {
        let schema = Schema::new(vec![
            AttrDef::str_rel("what"),
            AttrDef::rat_rel("room"),
            AttrDef::rat_con("start"),
        ])
        .unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("what", "standup").set("room", 3).pin("start", Rat::from_int(9)))
            .unwrap();
        r.insert_with(|b| b.set("what", "review").set("room", 5).range("start", 14, 16)).unwrap();
        r.insert_with(|b| b.set("what", "lunch").set("room", 3).range("start", 2, 4)).unwrap();
        r.insert_with(|b| b.set("what", "night").set("room", 7).range("start", 0, 5)).unwrap();
        // Room unknown: null fails every predicate that mentions it.
        r.insert_with(|b| b.set("what", "retro").range("start", 15, 20)).unwrap();
        IndefiniteRelation::new(r)
    }

    #[test]
    fn relational_and_mixed_predicates() {
        let r = booked();
        // start >= room: standup (9 ≥ 3) and review ([14,16] ≥ 5) in every
        // world; lunch ([2,4] vs 3) in some; night ([0,5] vs 7) in none.
        let after_room = Selection::all().cmp_attrs("start", CmpOp::Ge, "room");
        assert_eq!(
            names(&r.possible_select(&after_room).unwrap()),
            vec!["lunch", "review", "standup"]
        );
        assert_eq!(names(&r.certain_select(&after_room).unwrap()), vec!["review", "standup"]);
        // room = 3 and room <> 3 are decided by the stored value alone.
        let in_3 = Selection::all().cmp_int("room", CmpOp::Eq, 3);
        assert_eq!(names(&r.possible_select(&in_3).unwrap()), vec!["lunch", "standup"]);
        assert_eq!(names(&r.certain_select(&in_3).unwrap()), vec!["lunch", "standup"]);
        let not_3 = Selection::all().cmp_int("room", CmpOp::Ne, 3);
        assert_eq!(names(&r.possible_select(&not_3).unwrap()), vec!["night", "review"]);
        assert_eq!(names(&r.certain_select(&not_3).unwrap()), vec!["night", "review"]);
    }

    #[test]
    fn string_and_null_predicates() {
        let schema =
            Schema::new(vec![AttrDef::str_rel("who"), AttrDef::rat_con("age")]).unwrap();
        let mut rel = HRelation::new(schema);
        rel.insert_with(|b| b.set("who", "ann").range("age", 30, 40)).unwrap();
        rel.insert_with(|b| b.range("age", 30, 40)).unwrap(); // null who
        let r = IndefiniteRelation::new(rel);
        let sel = Selection::all().str_eq("who", "ann");
        assert_eq!(r.certain_select(&sel).unwrap().len(), 1);
        assert_eq!(r.possible_select(&sel).unwrap().len(), 1, "null never matches");
        // Unsatisfiable candidates: no worlds, so never certain.
        let schema = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
        let mut rel = HRelation::new(schema);
        rel.insert_with(|b| b.range("x", 5, 2)).unwrap();
        let r = IndefiniteRelation::new(rel);
        let sel = Selection::all().cmp_int("x", CmpOp::Ge, 0);
        assert!(r.certain_select(&sel).unwrap().is_empty());
    }
}
