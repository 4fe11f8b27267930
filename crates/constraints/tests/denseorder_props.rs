//! Property tests for the dense-order constraint class (§2.3 / Definition
//! 3): closure of quantifier elimination within the class, and agreement
//! of its satisfiability with the linear engine.

use cqa_constraints::denseorder::{OrderAtom, OrderConjunction, Term};
use cqa_constraints::{Budget, Var};
use cqa_num::Rat;
use proptest::prelude::*;

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u32..4).prop_map(|i| Term::Var(Var(i))),
        (-3i64..4).prop_map(|c| Term::Const(Rat::from_int(c))),
    ]
}

fn arb_atom() -> impl Strategy<Value = OrderAtom> {
    (arb_term(), 0u8..3, arb_term()).prop_map(|(l, rel, r)| match rel {
        0 => OrderAtom::lt(l, r),
        1 => OrderAtom::le(l, r),
        _ => OrderAtom::eq(l, r),
    })
}

fn arb_conj() -> impl Strategy<Value = OrderConjunction> {
    prop::collection::vec(arb_atom(), 0..6).prop_map(OrderConjunction::from_atoms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: eliminating any variable from a dense-order
    /// conjunction never leaves the class — the closure requirement of
    /// §2.4, executable.
    #[test]
    fn elimination_closed_in_class(conj in arb_conj(), v in 0u32..4) {
        let out = conj.eliminate([Var(v)]);
        prop_assert!(out.is_ok(), "left the class: {:?}", out.err());
    }

    /// Eliminating all variables decides satisfiability consistently with
    /// the linear embedding.
    #[test]
    fn elimination_preserves_satisfiability(conj in arb_conj()) {
        let vars: Vec<Var> = (0..4).map(Var).collect();
        let out = conj.eliminate(vars).unwrap();
        prop_assert_eq!(out.is_satisfiable(), conj.is_satisfiable());
    }

    /// Elimination result is implied by the original (soundness of ∃).
    #[test]
    fn elimination_is_implied(conj in arb_conj(), v in 0u32..4) {
        if !conj.is_satisfiable() {
            return Ok(());
        }
        let out = conj.eliminate([Var(v)]).unwrap();
        let lin_in = conj.to_linear();
        for atom in out.atoms() {
            prop_assert!(
                lin_in.implies_atom(&atom.to_linear(), &Budget::default()).unwrap(),
                "{} not implied by {}", atom, conj
            );
        }
    }

    /// Round trip: every generated atom embeds into the linear class and
    /// comes back with identical semantics.
    #[test]
    fn atoms_roundtrip(atom in arb_atom()) {
        let lin = atom.to_linear();
        if lin.ground_truth().is_some() {
            return Ok(()); // ground atoms normalize away
        }
        let back = OrderAtom::from_linear(&lin).unwrap();
        prop_assert_eq!(back.to_linear(), lin);
    }
}
