//! Criterion benchmarks for the CQA operators, including the ablation
//! DESIGN.md calls out: Gaussian substitution of equalities before
//! Fourier–Motzkin vs raw inequality-pair elimination on logically
//! equivalent inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use cqa::constraints::{Atom, Budget, Conjunction, LinExpr, Var};
use cqa::core::plan::{CmpOp, Selection};
use cqa::core::{ops, AttrDef, ExecOptions, ExecStats, HRelation, Schema};
use cqa::num::Rat;

fn interval_relation(n: usize) -> HRelation {
    let schema = Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .unwrap();
    let mut r = HRelation::new(schema);
    for i in 0..n {
        let lo = (i % 100) as i64 * 10;
        r.insert_with(|b| {
            b.set("id", format!("t{}", i).as_str())
                .range("x", lo, lo + 15)
                .range("y", lo / 2, lo / 2 + 7)
        })
        .unwrap();
    }
    r
}

fn bench_operators(c: &mut Criterion) {
    let rel = interval_relation(500);
    let sel = Selection::all().cmp_int("x", CmpOp::Ge, 300).cmp_int("x", CmpOp::Le, 500);
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    c.bench_function("select_500", |b| b.iter(|| ops::select(&rel, &sel, &opts, &stats).unwrap()));
    c.bench_function("project_500", |b| {
        b.iter(|| ops::project(&rel, &["id".into(), "x".into()], &opts, &stats).unwrap())
    });

    let small = interval_relation(40);
    c.bench_function("join_40x40", |b| {
        b.iter(|| ops::join(&small, &small, &opts, &stats).unwrap())
    });
    c.bench_function("difference_40x40", |b| {
        b.iter(|| ops::difference(&small, &small, &opts, &stats).unwrap())
    });
}

/// The Gaussian-step ablation: eliminate t from
///   { x = 2t + 1, y = t - 3, 0 <= t <= 10 }         (equational form)
/// vs the same system with each equation split into two inequalities
/// (forcing the quadratic Fourier–Motzkin pairing).
fn bench_elimination(c: &mut Criterion) {
    let (t, x, y) = (Var(0), Var(1), Var(2));
    let line = |coeff: i64, offset: i64, v: Var| {
        LinExpr::from_terms([(v, Rat::one()), (t, Rat::from_int(-coeff))], Rat::from_int(-offset))
    };
    let eq_form = Conjunction::from_atoms([
        Atom::new(line(2, 1, x), cqa::constraints::Rel::Eq),
        Atom::new(line(1, -3, y), cqa::constraints::Rel::Eq),
        Atom::ge(LinExpr::var(t), LinExpr::zero()),
        Atom::le(LinExpr::var(t), LinExpr::constant_int(10)),
    ]);
    let split_form = Conjunction::from_atoms(
        eq_form
            .atoms()
            .flat_map(|a| {
                if a.rel() == cqa::constraints::Rel::Eq {
                    vec![
                        Atom::new(a.expr().clone(), cqa::constraints::Rel::Le),
                        Atom::new(-a.expr(), cqa::constraints::Rel::Le),
                    ]
                } else {
                    vec![a.clone()]
                }
            })
            .collect::<Vec<_>>(),
    );
    assert!(eq_form.equivalent(&split_form));
    c.bench_function("eliminate_gaussian", |b| b.iter(|| eq_form.eliminate([t])));
    c.bench_function("eliminate_raw_fm", |b| b.iter(|| split_form.eliminate([t])));
}

/// The pruning ablation (DESIGN.md): Fourier–Motzkin with vs without the
/// parallel-constraint pruning pass, on a system that generates many
/// parallel constraints per eliminated variable.
fn bench_pruning(c: &mut Criterion) {
    use cqa::constraints::fourier_motzkin::{eliminate, eliminate_unpruned};
    use std::collections::BTreeSet;
    let n_bounds = 12;
    let vars: Vec<Var> = (0..4).map(Var).collect();
    let mut atoms: BTreeSet<Atom> = BTreeSet::new();
    // Chain v0 ≤ v1 ≤ v2 ≤ v3 with many redundant upper bounds per var.
    for w in vars.windows(2) {
        atoms.insert(Atom::le(LinExpr::var(w[0]), LinExpr::var(w[1])));
    }
    for (i, &v) in vars.iter().enumerate() {
        for b in 0..n_bounds {
            atoms.insert(Atom::le(
                LinExpr::var(v),
                LinExpr::constant_int(100 + (i as i64) * 50 + b),
            ));
            atoms.insert(Atom::ge(LinExpr::var(v), LinExpr::constant_int(-b)));
        }
    }
    let eliminate_vars: BTreeSet<Var> = vars[..3].iter().copied().collect();
    c.bench_function("fm_pruned", |bch| {
        bch.iter(|| eliminate(&atoms, &eliminate_vars, &Budget::default()))
    });
    c.bench_function("fm_unpruned", |bch| {
        bch.iter(|| eliminate_unpruned(&atoms, &eliminate_vars))
    });
}

criterion_group!(benches, bench_operators, bench_elimination, bench_pruning);

/// Engine-level indexing: the same selection through `exec::execute` with
/// and without a catalog index (the §5 machinery inside the evaluator).
fn bench_index_select(c: &mut Criterion) {
    use cqa::core::plan::Plan;
    use cqa::core::{exec, Catalog};
    let rel = interval_relation(2000);
    let mut plain = Catalog::new();
    plain.register("R", rel.clone());
    let mut indexed = Catalog::new();
    indexed.register("R", rel);
    indexed.build_index("R", &["x", "y"]).unwrap();
    let plan = Plan::scan("R").select(
        Selection::all()
            .cmp_int("x", CmpOp::Ge, 300)
            .cmp_int("x", CmpOp::Le, 340)
            .cmp_int("y", CmpOp::Le, 160),
    );
    let (opts, stats) = (ExecOptions::default(), ExecStats::new());
    c.bench_function("select_2000_scan", |b| {
        b.iter(|| exec::execute(&plan, &plain, &opts, &stats).unwrap())
    });
    c.bench_function("select_2000_indexed", |b| {
        b.iter(|| exec::execute(&plan, &indexed, &opts, &stats).unwrap())
    });
}

criterion_group!(index_benches, bench_index_select);
criterion_main!(benches, index_benches);
