//! The selection operator `ς_ξ(R)` (§2.4).
//!
//! The selection condition ξ is a conjunction of constraints over the
//! relation's attributes. Under the heterogeneous model each conjunct is
//! evaluated per tuple:
//!
//! * predicates over **relational** attributes are evaluated against the
//!   stored values — a null never satisfies a predicate (narrow semantics);
//! * predicates over **constraint** attributes are *conjoined* with the
//!   tuple's constraint part, and the tuple survives iff the result is
//!   satisfiable;
//! * mixed predicates substitute the relational values and conjoin the
//!   residual.
//!
//! This is exactly the asymmetry of the paper's Example 3:
//! `select x=17` vs `select y=17` behave differently when `x` is relational
//! and `y` is constraint.

use crate::error::{CoreError, Result};
use crate::par::{try_map_chunks, ExecCounter, ExecOptions, ExecStats};
use crate::relation::HRelation;
use crate::schema::{AttrKind, AttrType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use cqa_constraints::{Atom, Conjunction, LinExpr, Rel};
use cqa_num::Rat;
use std::fmt;

/// Comparison operators of the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` — only valid over relational attributes (the linear constraint
    /// class has no `≠` atoms; §2.4).
    Ne,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// The atom `expr op 0`; for `<>`, which the linear constraint class
    /// has no atom for, `expr` is handed back.
    pub fn atom(self, expr: LinExpr) -> std::result::Result<Atom, LinExpr> {
        Ok(match self {
            CmpOp::Eq => Atom::new(expr, Rel::Eq),
            CmpOp::Le => Atom::new(expr, Rel::Le),
            CmpOp::Lt => Atom::new(expr, Rel::Lt),
            CmpOp::Ge => Atom::new(-&expr, Rel::Le),
            CmpOp::Gt => Atom::new(-&expr, Rel::Lt),
            CmpOp::Ne => return Err(expr),
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        })
    }
}

/// One conjunct of a selection condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `Σ coeffᵢ·attrᵢ + constant  op  0` over rational attributes (named;
    /// resolved against the schema at evaluation time).
    Linear {
        /// Named attribute terms.
        terms: Vec<(String, Rat)>,
        /// Constant addend.
        constant: Rat,
        /// The comparison against zero.
        op: CmpOp,
    },
    /// String comparison on a relational attribute.
    Str {
        /// Attribute name.
        attr: String,
        /// `=` or `<>`.
        op: CmpOp,
        /// The literal to compare with.
        value: String,
    },
}

impl Predicate {
    /// The attribute names this predicate mentions, in order.
    pub fn attrs(&self) -> Vec<&str> {
        match self {
            Predicate::Linear { terms, .. } => terms.iter().map(|(n, _)| n.as_str()).collect(),
            Predicate::Str { attr, .. } => vec![attr.as_str()],
        }
    }
}

/// A conjunction of predicates — the ξ of `ς_ξ(R)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Selection {
    predicates: Vec<Predicate>,
}

impl Selection {
    /// The always-true selection.
    pub fn all() -> Selection {
        Selection::default()
    }

    /// The conjuncts.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Adds an arbitrary predicate.
    pub fn with(mut self, p: Predicate) -> Selection {
        self.predicates.push(p);
        self
    }

    /// Adds `attr op value` for a rational comparison.
    pub fn cmp(self, attr: impl Into<String>, op: CmpOp, value: Rat) -> Selection {
        self.with(Predicate::Linear {
            terms: vec![(attr.into(), Rat::one())],
            constant: -value,
            op,
        })
    }

    /// Adds `attr op value` for an integer literal.
    pub fn cmp_int(self, attr: impl Into<String>, op: CmpOp, value: i64) -> Selection {
        self.cmp(attr, op, Rat::from_int(value))
    }

    /// Adds `attr₁ op attr₂` comparing two rational attributes.
    pub fn cmp_attrs(
        self,
        left: impl Into<String>,
        op: CmpOp,
        right: impl Into<String>,
    ) -> Selection {
        self.with(Predicate::Linear {
            terms: vec![(left.into(), Rat::one()), (right.into(), -Rat::one())],
            constant: Rat::zero(),
            op,
        })
    }

    /// Adds a string equality `attr = value`.
    pub fn str_eq(self, attr: impl Into<String>, value: impl Into<String>) -> Selection {
        self.with(Predicate::Str { attr: attr.into(), op: CmpOp::Eq, value: value.into() })
    }

    /// Adds a string disequality `attr <> value`.
    pub fn str_ne(self, attr: impl Into<String>, value: impl Into<String>) -> Selection {
        self.with(Predicate::Str { attr: attr.into(), op: CmpOp::Ne, value: value.into() })
    }
}

/// Outcome of applying one predicate to one tuple.
pub(crate) enum Applied {
    /// Tuple fails the predicate outright.
    Reject,
    /// Predicate reduced to a ground truth of `true`.
    Accept,
    /// Residual constraint to conjoin (involves constraint attributes).
    Residual(Atom),
}

/// A predicate resolved against a schema: attributes are positions, their
/// types and kinds are checked, and the constraint attributes' terms are
/// already an expression.
pub(crate) enum Resolved {
    /// `tuple[pos] = value` (`eq`) or `tuple[pos] <> value`.
    Str { pos: usize, eq: bool, value: String },
    /// `expr + Σ coeff·tuple[pos]  op  0`, where `expr` holds the constant
    /// and the constraint-attribute terms and `relational` the rational
    /// relational attributes.
    Linear { expr: LinExpr, relational: Vec<(usize, Rat)>, op: CmpOp },
}

/// Resolves a selection against a schema, checking attribute existence,
/// types and the no-`≠`-over-constraints rule predicate by predicate.
pub(crate) fn resolve(schema: &Schema, selection: &Selection) -> Result<Vec<Resolved>> {
    selection.predicates().iter().map(|pred| Resolved::new(schema, pred)).collect()
}

impl Resolved {
    fn new(schema: &Schema, pred: &Predicate) -> Result<Resolved> {
        match pred {
            Predicate::Str { attr, op, value } => {
                let pos = schema.position(attr)?;
                let def = &schema.attrs()[pos];
                if def.ty != AttrType::Str || def.kind != AttrKind::Relational {
                    return Err(CoreError::BadPredicate(format!(
                        "string predicate on non-string attribute {:?}",
                        attr
                    )));
                }
                if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    return Err(CoreError::BadPredicate(format!(
                        "operator {} is not defined on strings",
                        op
                    )));
                }
                Ok(Resolved::Str { pos, eq: *op == CmpOp::Eq, value: value.clone() })
            }
            Predicate::Linear { terms, constant, op } => {
                let mut expr = LinExpr::constant(constant.clone());
                let mut relational = Vec::new();
                for (name, coeff) in terms {
                    let pos = schema.position(name)?;
                    let def = &schema.attrs()[pos];
                    if def.ty != AttrType::Rat {
                        return Err(CoreError::BadPredicate(format!(
                            "numeric predicate on string attribute {:?}",
                            name
                        )));
                    }
                    match def.kind {
                        AttrKind::Relational => relational.push((pos, coeff.clone())),
                        AttrKind::Constraint if *op == CmpOp::Ne => {
                            return Err(CoreError::BadPredicate(
                                "<> over constraint attributes is not a linear constraint"
                                    .to_string(),
                            ))
                        }
                        AttrKind::Constraint => expr.add_term(schema.var(pos), coeff.clone()),
                    }
                }
                Ok(Resolved::Linear { expr, relational, op: *op })
            }
        }
    }

    /// The predicate on one tuple: a relational attribute takes the
    /// tuple's value, and a null one rejects it (narrow semantics).
    pub(crate) fn apply(&self, tuple: &Tuple) -> Applied {
        match self {
            Resolved::Str { pos, eq, value } => match tuple.value(*pos) {
                None => Applied::Reject,
                Some(Value::Str(s)) if (s == value) == *eq => Applied::Accept,
                Some(Value::Str(_)) => Applied::Reject,
                Some(_) => unreachable!("resolved string attribute"),
            },
            Resolved::Linear { expr, relational, op } => {
                let mut constant = expr.constant_term().clone();
                for (pos, coeff) in relational {
                    match tuple.value(*pos) {
                        None => return Applied::Reject,
                        Some(Value::Rat(v)) => constant = &constant + &(coeff * v),
                        Some(_) => unreachable!("resolved rational attribute"),
                    }
                }
                let mut expr = expr.clone();
                expr.set_constant(constant);
                decide(expr, *op)
            }
        }
    }

    /// The predicate's atom with every rational attribute a variable, for
    /// an index probe window; `None` for a string predicate or `<>`.
    pub(crate) fn window_atom(&self, schema: &Schema) -> Option<Atom> {
        let Resolved::Linear { expr, relational, op } = self else { return None };
        let mut expr = expr.clone();
        for (pos, coeff) in relational {
            expr.add_term(schema.var(*pos), coeff.clone());
        }
        op.atom(expr).ok()
    }
}

/// `expr op 0`: a ground comparison decides, others leave their atom.
fn decide(expr: LinExpr, op: CmpOp) -> Applied {
    let atom = match op.atom(expr) {
        Ok(atom) => atom,
        Err(expr) => {
            // `<>` resolves only over relational attributes.
            assert!(expr.is_constant(), "<> over a constraint attribute");
            return if expr.constant_term().is_zero() { Applied::Reject } else { Applied::Accept };
        }
    };
    match atom.ground_truth() {
        Some(true) => Applied::Accept,
        Some(false) => Applied::Reject,
        None => Applied::Residual(atom),
    }
}

/// Applies `ς_ξ` to a relation.
///
/// ξ is resolved once per call. A linear predicate over constraint
/// attributes only is the same for every tuple: a constant one is decided
/// once, and the others' atoms form the *window* conjunction W. String,
/// relational and mixed predicates are applied per tuple, and each tuple
/// `t` is then processed in this order:
///
/// 1. the per-tuple predicates: a failed one rejects `t` (uncounted),
///    a mixed one leaves residual atoms P;
/// 2. with `bbox_filter` on, the residual's [`cqa_constraints::QuickBox`]:
///    the box of `t ∧ W ∧ P` is met from the seeds of its parts
///    ([`cqa_constraints::BoxSeed`], W's seed computed once), so a tuple
///    whose residual box is empty is counted as checked and rejected
///    without building or cloning anything;
/// 3. the residual `t ∧ W ∧ P` is built and checked exactly.
///
/// The box is an outward approximation, so step 2 skips only tuples the
/// exact check would reject too, and it is bit for bit the box of the
/// built residual, so output and counters equal those of building every
/// residual first (a test keeps that loop as its reference). The outer
/// loop runs on the deterministic chunked executor; output order matches
/// the serial evaluation exactly.
pub fn select(
    rel: &HRelation,
    selection: &Selection,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    let resolved = resolve(rel.schema(), selection)?;
    let tuples: Vec<&Tuple> = rel.tuples().iter().collect();
    select_tuples(rel.schema(), &tuples, &resolved, opts, stats)
}

/// [`select`] over borrowed tuples of a relation with `schema`, e.g. an
/// index's candidates, with ξ already resolved against `schema`.
pub(crate) fn select_tuples(
    schema: &Schema,
    tuples: &[&Tuple],
    resolved: &[Resolved],
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    let arity = schema.arity();
    let governor = &opts.governor;
    let budget = governor.budget(stats);
    let mut never = false;
    let mut window = Conjunction::tru();
    let mut per_tuple = Vec::new();
    for pred in resolved {
        match pred {
            Resolved::Linear { expr, relational, op } if relational.is_empty() => {
                match decide(expr.clone(), *op) {
                    Applied::Reject => never = true,
                    Applied::Accept => {}
                    Applied::Residual(atom) => window.add(atom),
                }
            }
            _ => per_tuple.push(pred),
        }
    }
    let window_seed = opts.bbox_filter.then(|| window.box_seed(arity));
    let produced: Vec<Result<Option<Tuple>>> =
        try_map_chunks(tuples, opts.effective_threads(), Some(governor.token()), |&tuple| {
            governor.check()?;
            if never {
                return Ok(None);
            }
            let mut extra = Conjunction::tru();
            for pred in &per_tuple {
                match pred.apply(tuple) {
                    Applied::Reject => return Ok(None),
                    Applied::Accept => {}
                    Applied::Residual(atom) => extra.add(atom),
                }
            }
            if let Some(window_seed) = &window_seed {
                stats.add(ExecCounter::FilterChecked, 1);
                let mut seed = tuple.constraint().box_seed(arity).meet(window_seed);
                if !extra.is_empty() {
                    seed = seed.meet(&extra.box_seed(arity));
                }
                if seed.finish().is_known_empty() {
                    stats.add(ExecCounter::FilterRejected, 1);
                    return Ok(None);
                }
            }
            let mut residual = tuple.constraint().and(&window);
            for atom in extra.atoms() {
                residual.add(atom.clone());
            }
            if residual.is_satisfiable_budgeted(&budget)? {
                Ok(Some(Tuple::from_parts(tuple.values().to_vec(), residual)))
            } else {
                Ok(None)
            }
        })
        .map_err(|_| governor.interrupt_error())?;
    let mut out = HRelation::new(schema.clone());
    for row in produced {
        if let Some(t) = row? {
            out.insert(t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;
    use cqa_constraints::Var;

    /// [`select`] with default options and throwaway counters.
    fn run(rel: &HRelation, selection: &Selection) -> Result<HRelation> {
        select(rel, selection, &ExecOptions::default(), &ExecStats::new())
    }

    /// The paper's Example 3 relation:
    /// R = {(x = 1), (y = 1), (x = 17, y = 17)} with
    /// schema [x: relational, y: constraint].
    fn example3() -> HRelation {
        let schema =
            Schema::new(vec![AttrDef::rat_rel("x"), AttrDef::rat_con("y")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("x", 1)).unwrap();
        r.insert_with(|b| b.pin("y", Rat::from_int(1))).unwrap();
        r.insert_with(|b| b.set("x", 17).pin("y", Rat::from_int(17))).unwrap();
        r
    }

    #[test]
    fn example3_select_on_relational_attribute() {
        // ς_{x=17} R returns only {(x = 17, y = 17)}: the tuple (y = 1) has
        // a *null* x, which never matches (narrow).
        let r = example3();
        let out = run(&r, &Selection::all().cmp_int("x", CmpOp::Eq, 17)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), Some(&Value::int(17)));
    }

    #[test]
    fn example3_select_on_constraint_attribute() {
        // ς_{y=17} R returns {(x = 1, y = 17), (x = 17, y = 17)}: the first
        // tuple's unmentioned y is broad, so conjoining y=17 keeps it.
        let r = example3();
        let out = run(&r, &Selection::all().cmp_int("y", CmpOp::Eq, 17)).unwrap();
        assert_eq!(out.len(), 2);
        let xs: Vec<Option<&Value>> = out.tuples().iter().map(|t| t.value(0)).collect();
        assert!(xs.contains(&Some(&Value::int(1))));
        assert!(xs.contains(&Some(&Value::int(17))));
        // And the y=1 tuple is gone: 1 = 17 is unsatisfiable.
    }

    #[test]
    fn example2_broad_vs_narrow() {
        // Example 2: R = {(x = 1)} over constraint {x, y}: ς_{y=17} keeps
        // the tuple. The same data with y relational returns nothing.
        let cschema =
            Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_con("y")]).unwrap();
        let mut constraint_rel = HRelation::new(cschema);
        constraint_rel.insert_with(|b| b.pin("x", Rat::from_int(1))).unwrap();
        let out =
            run(&constraint_rel, &Selection::all().cmp_int("y", CmpOp::Eq, 17)).unwrap();
        assert_eq!(out.len(), 1, "broad semantics: y = 17 admitted");
        assert!(out
            .contains_point(&[Value::int(1), Value::int(17)])
            .unwrap());

        let rschema =
            Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_rel("y")]).unwrap();
        let mut rel_rel = HRelation::new(rschema);
        rel_rel.insert_with(|b| b.pin("x", Rat::from_int(1))).unwrap();
        let out = run(&rel_rel, &Selection::all().cmp_int("y", CmpOp::Eq, 17)).unwrap();
        assert!(out.is_empty(), "narrow semantics: missing y never matches");
    }

    #[test]
    fn range_selection_on_constraint_attribute() {
        let schema = Schema::new(vec![AttrDef::rat_con("t")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.range("t", 0, 10)).unwrap();
        r.insert_with(|b| b.range("t", 20, 30)).unwrap();
        let out = run(
            &r,
            &Selection::all()
                .cmp_int("t", CmpOp::Ge, 4)
                .cmp_int("t", CmpOp::Le, 9),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_point(&[Value::int(5)]).unwrap());
        assert!(!out.contains_point(&[Value::int(2)]).unwrap(), "residual narrows the tuple");
    }

    #[test]
    fn string_predicates() {
        let schema = Schema::new(vec![AttrDef::str_rel("name")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("name", "ann")).unwrap();
        r.insert_with(|b| b.set("name", "bob")).unwrap();
        r.insert_with(|b| b).unwrap(); // null name
        let eq = run(&r, &Selection::all().str_eq("name", "ann")).unwrap();
        assert_eq!(eq.len(), 1);
        let ne = run(&r, &Selection::all().str_ne("name", "ann")).unwrap();
        assert_eq!(ne.len(), 1, "null fails <> too (narrow)");
    }

    #[test]
    fn attr_to_attr_comparison() {
        let schema = Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_con("y")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.range("x", 0, 10).range("y", 5, 6)).unwrap();
        let out = run(&r, &Selection::all().cmp_attrs("x", CmpOp::Ge, "y")).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_point(&[Value::int(6), Value::int(5)]).unwrap());
        assert!(!out.contains_point(&[Value::int(4), Value::int(5)]).unwrap());
    }

    #[test]
    fn bad_predicates_rejected() {
        let schema = Schema::new(vec![AttrDef::str_rel("s"), AttrDef::rat_con("x")]).unwrap();
        let r = HRelation::new(schema);
        assert!(run(&r, &Selection::all().cmp_int("s", CmpOp::Le, 3)).is_err());
        assert!(run(&r, &Selection::all().str_eq("x", "v")).is_err());
        assert!(run(&r, &Selection::all().cmp_int("missing", CmpOp::Eq, 1)).is_err());
        assert!(run(&r, &Selection::all().cmp_int("x", CmpOp::Ne, 1)).is_err());
    }

    #[test]
    fn ne_on_relational_rationals() {
        let schema = Schema::new(vec![AttrDef::rat_rel("age")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("age", 40)).unwrap();
        r.insert_with(|b| b.set("age", 41)).unwrap();
        let out = run(&r, &Selection::all().cmp_int("age", CmpOp::Ne, 40)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), Some(&Value::int(41)));
    }

    /// The per-tuple loop `select` had before ξ was resolved and split:
    /// every tuple's residual is built from its conjunction and every
    /// predicate, evaluated by attribute name, then filtered on its box,
    /// then checked exactly.
    fn reference_select(
        rel: &HRelation,
        selection: &Selection,
        opts: &ExecOptions,
        stats: &ExecStats,
    ) -> Result<HRelation> {
        reference_validate(rel.schema(), selection)?;
        let schema = rel.schema();
        let budget = opts.governor.budget(stats);
        let mut out = HRelation::new(schema.clone());
        'tuples: for tuple in rel.tuples() {
            let mut residual = tuple.constraint().clone();
            for pred in selection.predicates() {
                match reference_apply(schema, tuple, pred)? {
                    Applied::Reject => continue 'tuples,
                    Applied::Accept => {}
                    Applied::Residual(atom) => residual.add(atom),
                }
            }
            if opts.bbox_filter {
                stats.add(ExecCounter::FilterChecked, 1);
                if residual.quick_box(schema.arity()).is_known_empty() {
                    stats.add(ExecCounter::FilterRejected, 1);
                    continue;
                }
            }
            if residual.is_satisfiable_budgeted(&budget)? {
                out.insert(Tuple::from_parts(tuple.values().to_vec(), residual));
            }
        }
        Ok(out)
    }

    /// The checks [`resolve`] makes, predicate by predicate, written
    /// against attribute names.
    fn reference_validate(schema: &Schema, selection: &Selection) -> Result<()> {
        for pred in selection.predicates() {
            match pred {
                Predicate::Str { attr, op, value: _ } => {
                    let def = schema.attr(attr)?;
                    if def.ty != AttrType::Str || def.kind != AttrKind::Relational {
                        return Err(CoreError::BadPredicate(format!(
                            "string predicate on non-string attribute {:?}",
                            attr
                        )));
                    }
                    if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                        return Err(CoreError::BadPredicate(format!(
                            "operator {} is not defined on strings",
                            op
                        )));
                    }
                }
                Predicate::Linear { terms, op, .. } => {
                    for (name, _) in terms {
                        let def = schema.attr(name)?;
                        if def.ty != AttrType::Rat {
                            return Err(CoreError::BadPredicate(format!(
                                "numeric predicate on string attribute {:?}",
                                name
                            )));
                        }
                        if *op == CmpOp::Ne && def.kind == AttrKind::Constraint {
                            return Err(CoreError::BadPredicate(
                                "<> over constraint attributes is not a linear constraint"
                                    .to_string(),
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// One predicate on one tuple, looking every attribute up by name.
    fn reference_apply(schema: &Schema, tuple: &Tuple, pred: &Predicate) -> Result<Applied> {
        match pred {
            Predicate::Str { attr, op, value } => {
                let held = match tuple.value(schema.position(attr)?) {
                    None => return Ok(Applied::Reject), // null: narrow
                    Some(v) => v.as_str() == Some(value.as_str()),
                };
                let pass = if *op == CmpOp::Eq { held } else { !held };
                Ok(if pass { Applied::Accept } else { Applied::Reject })
            }
            Predicate::Linear { terms, constant, op } => {
                let mut expr = LinExpr::constant(constant.clone());
                for (name, coeff) in terms {
                    let idx = schema.position(name)?;
                    match schema.attrs()[idx].kind {
                        AttrKind::Relational => match tuple.value(idx) {
                            None => return Ok(Applied::Reject), // null: narrow
                            Some(v) => {
                                let v = v.as_rat().expect("validated rational attribute");
                                let shifted = expr.constant_term() + &(coeff * v);
                                expr.set_constant(shifted);
                            }
                        },
                        AttrKind::Constraint => expr.add_term(schema.var(idx), coeff.clone()),
                    }
                }
                let atom = match op {
                    CmpOp::Eq => Atom::new(expr, Rel::Eq),
                    CmpOp::Le => Atom::new(expr, Rel::Le),
                    CmpOp::Lt => Atom::new(expr, Rel::Lt),
                    CmpOp::Ge => Atom::new(-&expr, Rel::Le),
                    CmpOp::Gt => Atom::new(-&expr, Rel::Lt),
                    CmpOp::Ne => {
                        assert!(expr.is_constant(), "validated: <> is over relational attributes");
                        let pass = !expr.constant_term().is_zero();
                        return Ok(if pass { Applied::Accept } else { Applied::Reject });
                    }
                };
                Ok(match atom.ground_truth() {
                    Some(true) => Applied::Accept,
                    Some(false) => Applied::Reject,
                    None => Applied::Residual(atom),
                })
            }
        }
    }

    /// `[id: string relational, a: rational relational, x, y: rational
    /// constraint]`.
    fn mixed_schema() -> Schema {
        Schema::new(vec![
            AttrDef::str_rel("id"),
            AttrDef::rat_rel("a"),
            AttrDef::rat_con("x"),
            AttrDef::rat_con("y"),
        ])
        .unwrap()
    }

    /// `Σ terms + constant op 0` over the named attributes.
    fn linear(terms: &[(&str, i64)], constant: i64, op: CmpOp) -> Predicate {
        Predicate::Linear {
            terms: terms.iter().map(|&(n, c)| (n.to_string(), Rat::from_int(c))).collect(),
            constant: Rat::from_int(constant),
            op,
        }
    }

    /// [`select`] and [`reference_select`] agree on output tuples, their
    /// order, or the error's text, and on every executor counter, at
    /// threads 1 and 2 with the box filter on and off.
    fn assert_matches_reference(rel: &HRelation, selection: &Selection) {
        for threads in [1, 2] {
            for bbox_filter in [false, true] {
                let opts = ExecOptions { threads, bbox_filter, ..ExecOptions::default() };
                let (got_stats, want_stats) = (ExecStats::new(), ExecStats::new());
                let got = select(rel, selection, &opts, &got_stats);
                let want = reference_select(rel, selection, &opts, &want_stats);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.tuples(), want.tuples(), "{:?}", selection)
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "{:?}", selection)
                    }
                    (got, want) => panic!("{:?}: {:?} vs {:?}", selection, got, want),
                }
                assert_eq!(got_stats.values(), want_stats.values(), "{:?}", selection);
            }
        }
    }

    #[test]
    fn constant_predicates_decide_every_tuple() {
        let mut r = HRelation::new(mixed_schema());
        r.insert_with(|b| b.set("id", "p").range("x", 0, 4)).unwrap();
        r.insert_with(|b| b.set("a", 2).range("x", 6, 10)).unwrap();
        let x_ge_5 = Selection::all().cmp_int("x", CmpOp::Ge, 5);
        // 1 = 2, 1 <> 2 and 1 <> 1, each as `constant op 0`.
        for (constant, op, passes) in
            [(-1, CmpOp::Eq, false), (-1, CmpOp::Ne, true), (0, CmpOp::Ne, false)]
        {
            let sel = x_ge_5.clone().with(linear(&[], constant, op));
            assert_matches_reference(&r, &sel);
            assert_eq!(run(&r, &sel).unwrap().len(), usize::from(passes), "{:?}", sel);
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// A tuple: `id` (`"p"`/`"q"`) and `a`, each possibly null; a
        /// shape for `x` and `y`; and four small integers for its bounds.
        type TupleSpec = (Option<bool>, Option<i64>, u8, [i64; 4]);

        /// `x` and `y` free, `x` in a range, both in ranges, or `x` in a
        /// range and tied to `y` by `x + c·y <= k`.
        fn arb_tuple() -> impl Strategy<Value = TupleSpec> {
            (
                prop::option::of(any::<bool>()),
                prop::option::of(-3i64..=3),
                0u8..4,
                (-6i64..=6, 0i64..=6, -6i64..=6, 0i64..=6),
            )
                .prop_map(|(id, a, shape, (p, q, s, w))| (id, a, shape, [p, q, s, w]))
        }

        fn build(tuples: &[TupleSpec]) -> HRelation {
            let mut r = HRelation::new(mixed_schema());
            for &(id, a, shape, [p, q, s, w]) in tuples {
                r.insert_with(|mut b| {
                    if let Some(id) = id {
                        b = b.set("id", if id { "p" } else { "q" });
                    }
                    if let Some(a) = a {
                        b = b.set("a", a);
                    }
                    match shape {
                        0 => b,
                        1 => b.range("x", p, p + q),
                        2 => b.range("x", p, p + q).range("y", s, s + w),
                        _ => b.range("x", p, p + q).atom(Atom::le(
                            LinExpr::from_terms(
                                [(Var(2), Rat::one()), (Var(3), Rat::from_int(w - 3))],
                                Rat::zero(),
                            ),
                            LinExpr::constant_int(s),
                        )),
                    }
                })
                .unwrap();
            }
            r
        }

        /// One conjunct of each kind: constraint-only on one or two
        /// variables, relational, mixed, string, and constant-only; and,
        /// one draw in twenty, one the schema rejects.
        fn arb_predicate() -> impl Strategy<Value = Predicate> {
            let op =
                prop::sample::select(vec![CmpOp::Eq, CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt]);
            let any_op = prop::sample::select(vec![
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Le,
                CmpOp::Lt,
                CmpOp::Ge,
                CmpOp::Gt,
            ]);
            let str_pred = |attr: &str, op| Predicate::Str {
                attr: attr.to_string(),
                op,
                value: "p".to_string(),
            };
            let draws = (0u8..100, op, any_op, -6i64..=6, -2i64..=2);
            draws.prop_map(move |(kind, op, any_op, k, c)| match kind {
                // Rejected: an unknown attribute, `<>` on a constraint
                // attribute, a numeric predicate on a string, a string
                // predicate on a rational, and `<=` on a string.
                95 => linear(&[("x", 1), ("z", 1)], k, op),
                96 => linear(&[("a", 1), ("x", 1)], k, CmpOp::Ne),
                97 => linear(&[("a", 1), ("id", 1)], k, op),
                98 => str_pred("a", CmpOp::Eq),
                99 => str_pred("id", CmpOp::Le),
                _ => match kind % 8 {
                    0 => linear(&[("x", 1)], -k, op),
                    1 => linear(&[("y", 1)], -k, op),
                    2 => linear(&[("x", 1), ("y", c)], k, op),
                    3 => linear(&[("a", 1)], -k, any_op),
                    4 => linear(&[("x", 1), ("a", -1)], k, op),
                    5 => linear(&[("x", 1), ("y", c), ("a", 1)], k, op),
                    6 => str_pred("id", if c < 0 { CmpOp::Ne } else { CmpOp::Eq }),
                    _ => linear(&[], k.signum(), any_op),
                },
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn select_matches_the_build_every_residual_loop(
                tuples in prop::collection::vec(arb_tuple(), 0..12),
                preds in prop::collection::vec(arb_predicate(), 0..5),
            ) {
                let sel = preds.into_iter().fold(Selection::all(), Selection::with);
                assert_matches_reference(&build(&tuples), &sel);
            }
        }
    }
}
