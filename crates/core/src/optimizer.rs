//! Rule-based algebraic optimization.
//!
//! §1.1 places optimization in the CQA layer: "CQA queries can be optimized
//! for efficient evaluation, through the use of indexing and through
//! operator reordering". This module implements the operator-reordering
//! half with the classical rewrites, valid verbatim in the constraint
//! setting because every operator is semantically identical to its
//! relational counterpart (closure principle, §2.5):
//!
//! * merge cascaded selections;
//! * push selections through union, through the left side of difference,
//!   through rename (rewriting attribute names), and into whichever side
//!   of a join covers the predicate's attributes;
//! * collapse cascaded projections and drop identity projections.
//!
//! Selection pushdown is what makes the §5 indexing strategies applicable:
//! a pushed-down selection over indexed attributes becomes an index probe.

use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::id_pair_schema;
use crate::plan::{Plan, Predicate, Selection};
use crate::schema::Schema;

/// Infers the output schema of a plan without evaluating it.
pub fn output_schema(plan: &Plan, catalog: &Catalog) -> Result<Schema> {
    match plan {
        Plan::Scan(name) => Ok(catalog.get(name)?.schema().clone()),
        Plan::SpatialScan(name) => {
            catalog.get_spatial(name)?; // existence check
            Ok(crate::spatial_bridge::spatial_schema())
        }
        Plan::Select { input, .. } => output_schema(input, catalog),
        Plan::Project { input, attrs } => output_schema(input, catalog)?.project(attrs),
        Plan::Join { left, right } => {
            output_schema(left, catalog)?.join(&output_schema(right, catalog)?)
        }
        Plan::Union { left, .. } | Plan::Difference { left, .. } => output_schema(left, catalog),
        Plan::Rename { input, from, to } => output_schema(input, catalog)?.rename(from, to),
        Plan::BufferJoin { .. } | Plan::KNearest { .. } | Plan::Distance { .. } => {
            Ok(id_pair_schema())
        }
    }
}

/// Optimizes a plan. The result is semantically equivalent (same output on
/// every catalog where the original is well-formed).
pub fn optimize(plan: &Plan, catalog: &Catalog) -> Result<Plan> {
    let mut current = plan.clone();
    // Local rewrites can enable one another; iterate to a (small) fixpoint.
    for _ in 0..16 {
        let next = rewrite(&current, catalog)?;
        if next == current {
            break;
        }
        current = next;
    }
    Ok(current)
}

fn rewrite(plan: &Plan, catalog: &Catalog) -> Result<Plan> {
    // Bottom-up: rewrite children first.
    let plan = match plan {
        Plan::Select { input, selection } => Plan::Select {
            input: Box::new(rewrite(input, catalog)?),
            selection: selection.clone(),
        },
        Plan::Project { input, attrs } => Plan::Project {
            input: Box::new(rewrite(input, catalog)?),
            attrs: attrs.clone(),
        },
        Plan::Join { left, right } => Plan::Join {
            left: Box::new(rewrite(left, catalog)?),
            right: Box::new(rewrite(right, catalog)?),
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(rewrite(left, catalog)?),
            right: Box::new(rewrite(right, catalog)?),
        },
        Plan::Difference { left, right } => Plan::Difference {
            left: Box::new(rewrite(left, catalog)?),
            right: Box::new(rewrite(right, catalog)?),
        },
        Plan::Rename { input, from, to } => Plan::Rename {
            input: Box::new(rewrite(input, catalog)?),
            from: from.clone(),
            to: to.clone(),
        },
        leaf => leaf.clone(),
    };

    // Local rules at this node.
    Ok(match plan {
        // ς_a(ς_b(P)) → ς_{a∧b}(P)
        Plan::Select { input, selection } => match *input {
            Plan::Select { input: inner, selection: inner_sel } => {
                let mut merged = inner_sel;
                for p in selection.predicates() {
                    merged = merged.with(p.clone());
                }
                Plan::Select { input: inner, selection: merged }
            }
            // ς(P ∪ Q) → ς(P) ∪ ς(Q)
            Plan::Union { left, right } => Plan::Union {
                left: Box::new(Plan::Select { input: left, selection: selection.clone() }),
                right: Box::new(Plan::Select { input: right, selection }),
            },
            // ς(P − Q) → ς(P) − Q
            Plan::Difference { left, right } => Plan::Difference {
                left: Box::new(Plan::Select { input: left, selection }),
                right,
            },
            // ς(ρ(P)) → ρ(ς'(P)) with attribute names rewritten
            Plan::Rename { input: inner, from, to } => {
                let rewritten = rename_selection(&selection, &to, &from);
                Plan::Rename {
                    input: Box::new(Plan::Select { input: inner, selection: rewritten }),
                    from,
                    to,
                }
            }
            // ς(P ⋈ Q): push predicates covered entirely by one side
            Plan::Join { left, right } => {
                let ls = output_schema(&left, catalog)?;
                let rs = output_schema(&right, catalog)?;
                let mut to_left = Selection::all();
                let mut to_right = Selection::all();
                let mut stay = Selection::all();
                for p in selection.predicates() {
                    let attrs = p.attrs();
                    let all_left = attrs.iter().all(|a| ls.contains(a));
                    let all_right = attrs.iter().all(|a| rs.contains(a));
                    if all_left {
                        to_left = to_left.with(p.clone());
                    } else if all_right {
                        to_right = to_right.with(p.clone());
                    } else {
                        stay = stay.with(p.clone());
                    }
                }
                let left = maybe_select(*left, to_left);
                let right = maybe_select(*right, to_right);
                maybe_select(Plan::Join { left: Box::new(left), right: Box::new(right) }, stay)
            }
            other => Plan::Select { input: Box::new(other), selection },
        },
        // π_a(π_b(P)) → π_a(P); identity projection removal; projection
        // pushdown through join.
        Plan::Project { input, attrs } => match *input {
            Plan::Project { input: inner, .. } => Plan::Project { input: inner, attrs },
            // π_X(A ⋈ B) → π_X(π_{Xₐ∪J}(A) ⋈ π_{X_b∪J}(B)): dropping
            // attributes *before* the join lets quantifier elimination
            // discard their constraints early. J (the shared attributes)
            // must be kept below so the join condition is preserved.
            Plan::Join { left, right } => {
                let ls = output_schema(&left, catalog)?;
                let rs = output_schema(&right, catalog)?;
                let shared: Vec<&str> = ls
                    .attrs()
                    .iter()
                    .map(|a| a.name.as_str())
                    .filter(|n| rs.contains(n))
                    .collect();
                let keep = |schema: &Schema| -> Vec<String> {
                    schema
                        .attrs()
                        .iter()
                        .map(|a| a.name.clone())
                        .filter(|n| attrs.contains(n) || shared.contains(&n.as_str()))
                        .collect()
                };
                let (need_l, need_r) = (keep(&ls), keep(&rs));
                let narrows =
                    need_l.len() < ls.arity() || need_r.len() < rs.arity();
                let project_if = |plan: Plan, need: Vec<String>, full: usize| {
                    if need.len() < full {
                        Plan::Project { input: Box::new(plan), attrs: need }
                    } else {
                        plan
                    }
                };
                if narrows {
                    Plan::Project {
                        input: Box::new(Plan::Join {
                            left: Box::new(project_if(*left, need_l, ls.arity())),
                            right: Box::new(project_if(*right, need_r, rs.arity())),
                        }),
                        attrs,
                    }
                } else {
                    Plan::Project {
                        input: Box::new(Plan::Join { left, right }),
                        attrs,
                    }
                }
            }
            other => {
                let schema = output_schema(&other, catalog)?;
                let identity = schema.arity() == attrs.len()
                    && schema.attrs().iter().zip(&attrs).all(|(a, n)| &a.name == n);
                if identity {
                    other
                } else {
                    Plan::Project { input: Box::new(other), attrs }
                }
            }
        },
        other => other,
    })
}

fn maybe_select(plan: Plan, selection: Selection) -> Plan {
    if selection.predicates().is_empty() {
        plan
    } else {
        Plan::Select { input: Box::new(plan), selection }
    }
}

/// Rewrites attribute `from` to `to` inside every predicate.
fn rename_selection(sel: &Selection, from: &str, to: &str) -> Selection {
    let mut out = Selection::all();
    for p in sel.predicates() {
        let renamed = match p {
            Predicate::Linear { terms, constant, op } => Predicate::Linear {
                terms: terms
                    .iter()
                    .map(|(n, c)| {
                        (if n == from { to.to_string() } else { n.clone() }, c.clone())
                    })
                    .collect(),
                constant: constant.clone(),
                op: *op,
            },
            Predicate::Str { attr, op, value } => Predicate::Str {
                attr: if attr == from { to.to_string() } else { attr.clone() },
                op: *op,
                value: value.clone(),
            },
        };
        out = out.with(renamed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::par::{ExecOptions, ExecStats};
    use crate::plan::CmpOp;
    use crate::relation::HRelation;
    use crate::schema::AttrDef;
    use crate::value::Value;

    fn run(plan: &Plan, cat: &Catalog) -> Result<HRelation> {
        execute(plan, cat, &ExecOptions::default(), &ExecStats::new())
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let a = Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_con("x")]).unwrap();
        let mut ra = HRelation::new(a);
        ra.insert_with(|b| b.set("id", "p").range("x", 0, 10)).unwrap();
        ra.insert_with(|b| b.set("id", "q").range("x", 20, 30)).unwrap();
        cat.register("A", ra);
        let b = Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_con("y")]).unwrap();
        let mut rb = HRelation::new(b);
        rb.insert_with(|u| u.set("id", "p").range("y", 5, 15)).unwrap();
        cat.register("B", rb);
        cat
    }

    #[test]
    fn select_merge_and_join_pushdown() {
        let cat = catalog();
        let plan = Plan::scan("A")
            .join(Plan::scan("B"))
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 1))
            .select(Selection::all().cmp_int("y", CmpOp::Le, 14));
        let opt = optimize(&plan, &cat).unwrap();
        // Both predicates end up below the join.
        let shown = opt.to_string();
        let join_line = shown.lines().position(|l| l.contains("Join")).unwrap();
        let select_lines: Vec<usize> = shown
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("Select"))
            .map(|(i, _)| i)
            .collect();
        assert!(select_lines.iter().all(|&i| i > join_line), "pushed below join:\n{}", shown);
        // Semantics preserved.
        let a = run(&plan, &cat).unwrap();
        let b = run(&opt, &cat).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn select_through_rename() {
        let cat = catalog();
        let plan = Plan::scan("A")
            .rename("x", "z")
            .select(Selection::all().cmp_int("z", CmpOp::Ge, 15));
        let opt = optimize(&plan, &cat).unwrap();
        match &opt {
            Plan::Rename { input, .. } => {
                assert!(matches!(**input, Plan::Select { .. }), "select pushed under rename")
            }
            other => panic!("expected rename at root, got {}", other),
        }
        assert_eq!(run(&plan, &cat).unwrap(), run(&opt, &cat).unwrap());
    }

    #[test]
    fn select_through_union_and_difference() {
        let cat = {
            let mut c = catalog();
            let a = c.get("A").unwrap().clone();
            c.register("A2", a);
            c
        };
        let sel = Selection::all().cmp_int("x", CmpOp::Le, 5);
        let plan = Plan::scan("A").union(Plan::scan("A2")).select(sel.clone());
        let opt = optimize(&plan, &cat).unwrap();
        assert!(matches!(opt, Plan::Union { .. }), "select distributed: {}", opt);
        assert_eq!(run(&plan, &cat).unwrap(), run(&opt, &cat).unwrap());

        let dplan = Plan::scan("A").minus(Plan::scan("A2")).select(sel);
        let dopt = optimize(&dplan, &cat).unwrap();
        assert!(matches!(dopt, Plan::Difference { .. }));
        assert_eq!(run(&dplan, &cat).unwrap(), run(&dopt, &cat).unwrap());
    }

    #[test]
    fn projection_rules() {
        let cat = catalog();
        // Cascaded projections collapse.
        let plan = Plan::scan("A").project(&["id", "x"]).project(&["id"]);
        let opt = optimize(&plan, &cat).unwrap();
        match &opt {
            Plan::Project { input, attrs } => {
                assert_eq!(attrs, &vec!["id".to_string()]);
                assert!(matches!(**input, Plan::Scan(_)));
            }
            other => panic!("expected single project, got {}", other),
        }
        // Identity projection disappears.
        let plan = Plan::scan("A").project(&["id", "x"]);
        let opt = optimize(&plan, &cat).unwrap();
        assert!(matches!(opt, Plan::Scan(_)));
        assert_eq!(
            run(&Plan::scan("A"), &cat).unwrap(),
            run(&opt, &cat).unwrap()
        );
    }

    #[test]
    fn optimized_plan_equivalent_on_mixed_query() {
        let cat = catalog();
        let plan = Plan::scan("A")
            .join(Plan::scan("B"))
            .select(
                Selection::all()
                    .cmp_int("x", CmpOp::Ge, 0)
                    .cmp_int("y", CmpOp::Ge, 6)
                    .str_eq("id", "p"),
            )
            .project(&["id"]);
        let opt = optimize(&plan, &cat).unwrap();
        let a = run(&plan, &cat).unwrap();
        let b = run(&opt, &cat).unwrap();
        assert_eq!(a, b);
        assert!(a.contains_point(&[Value::str("p")]).unwrap());
    }

    #[test]
    fn projection_pushes_through_join() {
        let cat = catalog();
        // π_{id}(A ⋈ B): both x and y can be dropped below the join (id is
        // the shared attribute and the only requested one).
        let plan = Plan::scan("A").join(Plan::scan("B")).project(&["id"]);
        let opt = optimize(&plan, &cat).unwrap();
        let shown = opt.to_string();
        let join_line = shown.lines().position(|l| l.contains("Join")).unwrap();
        let inner_projects = shown
            .lines()
            .enumerate()
            .filter(|(i, l)| l.contains("Project") && *i > join_line)
            .count();
        assert_eq!(inner_projects, 2, "both sides narrowed below the join:\n{}", shown);
        // Semantics preserved (point sets; syntactic tuples may differ).
        let a = run(&plan, &cat).unwrap();
        let b = run(&opt, &cat).unwrap();
        assert_eq!(a.schema(), b.schema());
        for id in ["p", "q", "zz"] {
            assert_eq!(
                a.contains_point(&[Value::str(id)]).unwrap(),
                b.contains_point(&[Value::str(id)]).unwrap(),
                "id {}",
                id
            );
        }
        // Idempotent: re-optimizing changes nothing (no rewrite loop).
        assert_eq!(optimize(&opt, &cat).unwrap(), opt);
    }

    #[test]
    fn cross_side_predicate_stays_above_join() {
        let cat = catalog();
        // x and y live on different sides: x + y ≤ 20 cannot be pushed.
        let sel = Selection::all().with(Predicate::Linear {
            terms: vec![
                ("x".to_string(), cqa_num::Rat::one()),
                ("y".to_string(), cqa_num::Rat::one()),
            ],
            constant: cqa_num::Rat::from_int(-20),
            op: CmpOp::Le,
        });
        let plan = Plan::scan("A").join(Plan::scan("B")).select(sel);
        let opt = optimize(&plan, &cat).unwrap();
        assert!(
            matches!(opt, Plan::Select { ref input, .. } if matches!(**input, Plan::Join { .. })),
            "stays above: {}",
            opt
        );
        assert_eq!(run(&plan, &cat).unwrap(), run(&opt, &cat).unwrap());
    }
}
