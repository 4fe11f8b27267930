//! The natural-join operator `R₁ ⋈ R₂` (§2.4).
//!
//! Per the paper's remark, cross-product and intersection are special cases
//! (no shared attributes / all attributes shared). Shared **relational**
//! attributes join by value equality (nulls never match — narrow
//! semantics); shared **constraint** attributes join by *conjoining* the
//! two tuples' constraints and keeping satisfiable combinations. Query 3 of
//! the Hurricane case study joins on three shared constraint attributes
//! (`t`, `x`, `y`) this way.

use crate::error::Result;
use crate::par::{try_flat_map_chunks, ExecCounter, ExecOptions, ExecStats};
use crate::relation::HRelation;
use crate::schema::AttrKind;
use crate::tuple::Tuple;
use crate::value::Value;
use cqa_constraints::{Conjunction, QuickBox, Var};
use std::collections::HashMap;

/// The tuple's values at `positions`, or `None` if any is null (narrow
/// semantics: a null shared attribute never joins).
fn shared_key(t: &Tuple, positions: impl Iterator<Item = usize>) -> Option<Vec<&Value>> {
    positions.map(|i| t.value(i)).collect()
}

/// Applies the natural join.
///
/// The right side is prepared **once**: each right tuple's constraint is
/// renamed into output variable positions in one pass and its conservative
/// bounding box computed up front, instead of per pair. The outer (left)
/// loop then runs on the deterministic chunked executor; pair order — and
/// therefore output order — matches the serial nested loop exactly.
///
/// With `bbox_filter` on, a pair whose boxes are provably disjoint skips
/// the conjoin-and-decide step. Such pairs are exactly unsatisfiable
/// combinations, which the exact path would drop anyway, so the output is
/// bit-identical with the filter off.
pub fn join(
    left: &HRelation,
    right: &HRelation,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    let ls = left.schema();
    let rs = right.schema();
    let out_schema = ls.join(rs)?;
    let arity = out_schema.arity();

    // For each right attribute: its position in the output schema.
    let right_to_out: Vec<usize> = rs
        .attrs()
        .iter()
        .map(|a| out_schema.position(&a.name).expect("join schema covers right"))
        .collect();
    // Right constraint vars renamed to output positions.
    let mapping: Vec<(Var, Var)> = rs
        .constraint_positions()
        .map(|i| (rs.var(i), Var(right_to_out[i] as u32)))
        .collect();
    // Shared relational attributes: (left position, right position).
    let shared_rel: Vec<(usize, usize)> = ls
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind == AttrKind::Relational && rs.contains(&a.name))
        .map(|(i, a)| (i, rs.position(&a.name).expect("contains")))
        .collect();

    // Hoisted right-side preparation (rename + box, once per right tuple).
    let rights: Vec<(&Tuple, Conjunction, QuickBox)> = right
        .tuples()
        .iter()
        .map(|rt| {
            let conj = rt.constraint().rename(&mapping);
            let bx = conj.quick_box(arity);
            (rt, conj, bx)
        })
        .collect();

    // Hash-partition pre-bucketing on shared relational attributes: the
    // right side is partitioned by its shared-attribute values once, so
    // each left tuple enumerates only value-compatible candidates instead
    // of scanning every right tuple for equality. Buckets keep right-scan
    // order and the left loop is unchanged, so output order — and output
    // content — is bit-identical to the full nested loop. Rights with a
    // null shared value go in no bucket (narrow semantics).
    let buckets: Option<HashMap<Vec<&Value>, Vec<usize>>> = if shared_rel.is_empty() {
        None
    } else {
        let mut m: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
        for (i, (rt, _, _)) in rights.iter().enumerate() {
            if let Some(key) = shared_key(rt, shared_rel.iter().map(|&(_, ri)| ri)) {
                m.entry(key).or_default().push(i);
            }
        }
        Some(m)
    };
    let all_rights: Vec<usize> = (0..rights.len()).collect();

    let governor = &opts.governor;
    let budget = governor.budget(stats);
    let produced: Vec<Result<Tuple>> =
        try_flat_map_chunks(left.tuples(), opts.effective_threads(), Some(governor.token()), |lt| {
            if let Err(e) = governor.check() {
                return vec![Err(e)];
            }
            let candidates: &[usize] = match &buckets {
                None => &all_rights,
                Some(m) => shared_key(lt, shared_rel.iter().map(|&(li, _)| li))
                    .and_then(|key| m.get(&key))
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]),
            };
            stats.add(ExecCounter::PairsEnumerated, candidates.len() as u64);
            // Left constraints already sit at output positions (the output
            // schema starts with the left schema), so one box per left
            // tuple serves every pair.
            let left_box = if opts.bbox_filter && !candidates.is_empty() {
                Some(lt.constraint().quick_box(arity))
            } else {
                None
            };
            let mut out = Vec::new();
            for &ri in candidates {
                let (rt, rconj, rbox) = &rights[ri];
                if let Some(lb) = &left_box {
                    stats.add(ExecCounter::FilterChecked, 1);
                    if lb.disjoint(rbox) {
                        stats.add(ExecCounter::FilterRejected, 1);
                        continue;
                    }
                }
                // Constraints: left part keeps its positions; the
                // (pre-renamed) right part is conjoined. Shared constraint
                // attributes thereby intersect.
                let conj = lt.constraint().and(rconj);
                match conj.is_satisfiable_budgeted(&budget) {
                    Ok(false) => continue,
                    Ok(true) => {}
                    Err(e) => {
                        out.push(Err(e.into()));
                        return out;
                    }
                }
                // Values: left slots as-is, right non-shared appended.
                let mut values = lt.values().to_vec();
                values.resize(arity, None);
                for (ri, &oi) in right_to_out.iter().enumerate() {
                    if oi >= ls.arity() {
                        values[oi] = rt.values()[ri].clone();
                    }
                }
                out.push(Ok(Tuple::from_parts(values, conj)));
            }
            out
        })
        .map_err(|_| governor.interrupt_error())?;

    let mut out = HRelation::new(out_schema);
    for t in produced {
        out.insert(t?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDef, Schema};
    use crate::value::Value;

    /// [`join`] with default options and throwaway counters.
    fn run(left: &HRelation, right: &HRelation) -> Result<HRelation> {
        join(left, right, &ExecOptions::default(), &ExecStats::new())
    }

    fn v(s: &str) -> Value {
        Value::str(s)
    }
    fn n(i: i64) -> Value {
        Value::int(i)
    }

    #[test]
    fn join_on_relational_key() {
        let land = {
            let s = Schema::new(vec![AttrDef::str_rel("landId"), AttrDef::rat_con("x")])
                .unwrap();
            let mut r = HRelation::new(s);
            r.insert_with(|b| b.set("landId", "A").range("x", 0, 2)).unwrap();
            r.insert_with(|b| b.set("landId", "B").range("x", 3, 5)).unwrap();
            r
        };
        let owner = {
            let s = Schema::new(vec![AttrDef::str_rel("name"), AttrDef::str_rel("landId")])
                .unwrap();
            let mut r = HRelation::new(s);
            r.insert_with(|b| b.set("name", "dina").set("landId", "A")).unwrap();
            r.insert_with(|b| b.set("name", "mira").set("landId", "C")).unwrap();
            r.insert_with(|b| b.set("name", "noid")).unwrap(); // null landId
            r
        };
        let out = run(&owner, &land).unwrap();
        assert_eq!(out.len(), 1, "only dina↦A matches; null never joins");
        let names: Vec<&str> =
            out.schema().attrs().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["name", "landId", "x"]);
        assert!(out.contains_point(&[v("dina"), v("A"), n(1)]).unwrap());
        assert!(!out.contains_point(&[v("dina"), v("A"), n(4)]).unwrap());
    }

    #[test]
    fn join_on_shared_constraint_attribute_intersects() {
        // Two unary constraint relations over the same attribute x:
        // intervals [0,10] and [5,20] join to [5,10].
        let make = |lo: i64, hi: i64| {
            let s = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
            let mut r = HRelation::new(s);
            r.insert_with(|b| b.range("x", lo, hi)).unwrap();
            r
        };
        let out = run(&make(0, 10), &make(5, 20)).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_point(&[n(7)]).unwrap());
        assert!(!out.contains_point(&[n(3)]).unwrap());
        assert!(!out.contains_point(&[n(15)]).unwrap());
        // Disjoint intervals produce nothing.
        let empty = run(&make(0, 1), &make(5, 6)).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn cross_product_when_no_shared_attributes() {
        let a = {
            let s = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
            let mut r = HRelation::new(s);
            r.insert_with(|b| b.range("x", 0, 1)).unwrap();
            r.insert_with(|b| b.range("x", 2, 3)).unwrap();
            r
        };
        let b = {
            let s = Schema::new(vec![AttrDef::rat_con("y")]).unwrap();
            let mut r = HRelation::new(s);
            r.insert_with(|bu| bu.range("y", 5, 6)).unwrap();
            r
        };
        let out = run(&a, &b).unwrap();
        assert_eq!(out.len(), 2, "cross product");
        assert!(out.contains_point(&[n(0), n(5)]).unwrap());
        assert!(out.contains_point(&[n(3), n(6)]).unwrap());
    }

    #[test]
    fn spatio_temporal_join_like_query3() {
        // Land extent [0,2]×[0,2]; hurricane path: the segment x=y over
        // t∈[0,4] moving diagonally: x = t, y = t, 0 ≤ t ≤ 4. The join
        // pins the storm inside the parcel: t ∈ [0,2].
        use cqa_constraints::{Atom, LinExpr};
        let land = {
            let s = Schema::new(vec![
                AttrDef::str_rel("landId"),
                AttrDef::rat_con("x"),
                AttrDef::rat_con("y"),
            ])
            .unwrap();
            let mut r = HRelation::new(s);
            r.insert_with(|b| b.set("landId", "A").range("x", 0, 2).range("y", 0, 2))
                .unwrap();
            r
        };
        let hurricane = {
            let s = Schema::new(vec![
                AttrDef::rat_con("t"),
                AttrDef::rat_con("x"),
                AttrDef::rat_con("y"),
            ])
            .unwrap();
            let mut r = HRelation::new(s);
            r.insert_with(|b| {
                b.range("t", 0, 4)
                    .atom(Atom::eq(LinExpr::var(Var(1)), LinExpr::var(Var(0))))
                    .atom(Atom::eq(LinExpr::var(Var(2)), LinExpr::var(Var(0))))
            })
            .unwrap();
            r
        };
        let out = run(&land, &hurricane).unwrap();
        assert_eq!(out.len(), 1);
        // Schema: landId, x, y, t.
        assert!(out.contains_point(&[v("A"), n(1), n(1), n(1)]).unwrap());
        assert!(!out.contains_point(&[v("A"), n(3), n(3), n(3)]).unwrap(), "outside parcel");
        assert!(!out.contains_point(&[v("A"), n(1), n(2), n(1)]).unwrap(), "off the path");
    }
}
