//! The projection operator `π_X(R)` (§2.4).
//!
//! Relational attributes are simply restricted; constraint attributes that
//! are dropped are **existentially quantified away** by exact quantifier
//! elimination, so the output's semantics is precisely the shadow
//! `{t[X] : R(t)}` of Definition (3) — in closed form, as the framework's
//! safety requirement demands.

use crate::error::Result;
use crate::par::{ExecOptions, ExecStats};
use crate::relation::HRelation;
use crate::schema::AttrKind;
use crate::tuple::Tuple;
use cqa_constraints::Var;

/// Applies `π_X` with `X` given as attribute names (output order follows
/// `names`).
///
/// Quantifier elimination is the operator's hot spot and its memory
/// hazard: Fourier–Motzkin can square the atom count per eliminated
/// variable. The loop consults the governor per tuple (cancellation,
/// deadline) and runs each elimination under the governor's FM budget,
/// recording the peak intermediate size into `stats`.
pub fn project(
    rel: &HRelation,
    names: &[String],
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    let schema = rel.schema();
    let out_schema = schema.project(names)?;
    let positions: Vec<usize> =
        names.iter().map(|n| schema.position(n)).collect::<Result<_>>()?;

    // Constraint variables to eliminate: constraint attrs not kept.
    let keep: Vec<bool> = {
        let mut keep = vec![false; schema.arity()];
        for &p in &positions {
            keep[p] = true;
        }
        keep
    };
    let eliminate: Vec<Var> = schema
        .constraint_positions()
        .filter(|&i| !keep[i])
        .map(|i| schema.var(i))
        .collect();
    // Var remapping old position → new position for kept constraint attrs.
    let mapping: Vec<(Var, Var)> = positions
        .iter()
        .enumerate()
        .filter(|(_, &old)| schema.attrs()[old].kind == AttrKind::Constraint)
        .map(|(new, &old)| (schema.var(old), Var(new as u32)))
        .collect();

    let governor = &opts.governor;
    let budget = governor.budget(stats);
    let mut out = HRelation::new(out_schema);
    for tuple in rel.tuples() {
        governor.check()?;
        let values = positions.iter().map(|&p| tuple.values()[p].clone()).collect();
        // One span per elimination call when tracing: this serial loop is
        // a span site, so the recorded sequence is thread-count-invariant.
        let span_start = cqa_obs::spans_enabled().then(std::time::Instant::now);
        let atoms_in = tuple.constraint().len() as u64;
        let conj = tuple.constraint().eliminate_budgeted(eliminate.iter().copied(), &budget)?;
        if let Some(t0) = span_start {
            cqa_obs::record_span(
                "fm.eliminate",
                String::new(),
                t0.elapsed().as_nanos() as u64,
                vec![
                    ("atoms_in", atoms_in),
                    ("atoms_out", conj.len() as u64),
                    ("vars", eliminate.len() as u64),
                ],
            );
        }
        if conj.is_trivially_false() {
            continue;
        }
        let conj = conj.rename(&mapping);
        out.insert(Tuple::from_parts(values, conj));
    }
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::{select, CmpOp, Selection};
    use crate::schema::{AttrDef, Schema};
    use crate::value::Value;
    use cqa_num::Rat;

    /// [`project`] with default options and throwaway counters.
    fn run(rel: &HRelation, names: &[String]) -> Result<HRelation> {
        project(rel, names, &ExecOptions::default(), &ExecStats::new())
    }

    fn land() -> HRelation {
        let schema = Schema::new(vec![
            AttrDef::str_rel("landId"),
            AttrDef::rat_con("x"),
            AttrDef::rat_con("y"),
        ])
        .unwrap();
        let mut r = HRelation::new(schema);
        // Parcel A: [0,2]×[3,6]; parcel B: the triangle x,y ≥ 0, x+y ≤ 2.
        r.insert_with(|b| b.set("landId", "A").range("x", 0, 2).range("y", 3, 6)).unwrap();
        r.insert_with(|b| {
            use cqa_constraints::{Atom, LinExpr, Var};
            b.set("landId", "B")
                .atom(Atom::ge(LinExpr::var(Var(1)), LinExpr::zero()))
                .atom(Atom::ge(LinExpr::var(Var(2)), LinExpr::zero()))
                .atom(Atom::le(
                    LinExpr::from_terms(
                        [(Var(1), Rat::one()), (Var(2), Rat::one())],
                        Rat::zero(),
                    ),
                    LinExpr::constant_int(2),
                ))
        })
        .unwrap();
        r
    }

    #[test]
    fn project_restricts_relational_and_eliminates_constraint() {
        let r = land();
        let out = run(&r, &["landId".into(), "x".into()]).unwrap();
        assert_eq!(out.schema().arity(), 2);
        // A's x-shadow is [0,2]; B's x-shadow is [0,2] too (triangle).
        assert!(out.contains_point(&[Value::str("A"), Value::int(1)]).unwrap());
        assert!(out.contains_point(&[Value::str("B"), Value::int(2)]).unwrap());
        assert!(!out.contains_point(&[Value::str("B"), Value::int(3)]).unwrap());
        // y is gone from the schema.
        assert!(!out.schema().contains("y"));
    }

    #[test]
    fn projection_reorders() {
        let r = land();
        let out = run(&r, &["y".into(), "landId".into()]).unwrap();
        assert_eq!(out.schema().attrs()[0].name, "y");
        // Variable positions remapped: y is now Var(0).
        assert!(out.contains_point(&[Value::int(4), Value::str("A")]).unwrap());
        assert!(!out.contains_point(&[Value::int(7), Value::str("A")]).unwrap());
    }

    #[test]
    fn projection_deduplicates() {
        let schema =
            Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_con("x")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("id", "same").range("x", 0, 1)).unwrap();
        r.insert_with(|b| b.set("id", "same").range("x", 5, 9)).unwrap();
        let out = run(&r, &["id".into()]).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn shadow_is_exact_not_boxy() {
        // Projecting the triangle x + y ≤ 2 (x, y ≥ 0) after selecting
        // y ≥ 1 must give x ≤ 1, not x ≤ 2: projection interacts with the
        // other attribute's constraints.
        let r = land();
        let sel = Selection::all().cmp_int("y", CmpOp::Ge, 1);
        let narrowed = select(&r, &sel, &ExecOptions::default(), &ExecStats::new()).unwrap();
        let out = run(&narrowed, &["landId".into(), "x".into()]).unwrap();
        assert!(out.contains_point(&[Value::str("B"), Value::int(1)]).unwrap());
        assert!(!out
            .contains_point(&[Value::str("B"), Value::rat(Rat::from_pair(3, 2))])
            .unwrap());
    }

    #[test]
    fn empty_projection_list_keeps_tuple_presence() {
        let r = land();
        let out = run(&r, &[]).unwrap();
        assert_eq!(out.schema().arity(), 0);
        assert_eq!(out.len(), 1, "all tuples collapse to the empty tuple");
    }
}
