//! Robustness properties of the surface syntax: no input — however
//! malformed — may panic the lexer, the parser, or the `.cdb` loader;
//! they must return positioned errors instead. Also: everything the
//! system prints for a relation's schema round-trips back through the
//! loader.

use cqa_lang::parse::parse_script;
use cqa_lang::schema_def::parse_cdb;
use cqa_lang::ScriptRunner;

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary unicode soup: never panic.
        #[test]
        fn parser_never_panics(input in "\\PC{0,120}") {
            let _ = parse_script(&input);
            let _ = parse_cdb(&input);
        }

        /// Statement-shaped soup: tokens that look like the grammar.
        #[test]
        fn statement_shaped_soup_never_panics(
            target in "[A-Za-z][A-Za-z0-9]{0,6}",
            op in prop::sample::select(vec![
                "select", "project", "join", "union", "diff", "rename",
                "bufferjoin", "knearest", "distance", "spatial", "garbage",
            ]),
            junk in "[A-Za-z0-9 ,<>=+*._\"()-]{0,60}",
        ) {
            let line = format!("{} = {} {}\n", target, op, junk);
            let _ = parse_script(&line);
        }

        /// Cdb-shaped soup.
        #[test]
        fn cdb_shaped_soup_never_panics(
            kw in prop::sample::select(vec!["relation", "tuple", "spatial"]),
            name in "[A-Za-z][A-Za-z0-9]{0,6}",
            body in "[A-Za-z0-9 ;:,<>=+*._\"()-]{0,80}",
        ) {
            let text = format!("{} {} {{ {} }}\n", kw, name, body);
            let _ = parse_cdb(&text);
        }

        /// Numbers with every sign/fraction/decimal shape parse or error
        /// cleanly inside conditions.
        #[test]
        fn numeric_condition_shapes(n in -9999i64..9999, d in 1i64..999, frac in 0u32..1_000_000u32) {
            for lit in [
                format!("{}", n),
                format!("{}/{}", n, d),
                format!("{}.{:06}", n.abs(), frac),
                format!("-{}.{:06}", n.abs(), frac),
            ] {
                let src = format!("R = select x >= {} from T\n", lit);
                prop_assert!(parse_script(&src).is_ok(), "literal {:?}", lit);
            }
        }
    }
}

/// Deterministic torture inputs that previously looked risky.
#[test]
fn torture_inputs() {
    for input in [
        "",
        "\n\n\n",
        "#only a comment",
        "R =",
        "= select x from T",
        "R = select from T",
        "R = select x >= from T",
        "R = select x >= 1 from",
        "R = project T on",
        "R = rename a to in T",
        "R = knearest A and B k -3",
        "R = knearest A and B k 999999999999999999999999",
        "relation { }",
        "relation R { x: }",
        "relation R { x: rational }",
        "tuple R { }",
        "spatial S { feature }",
        "spatial S { feature \"p\" point }",
        "spatial S { feature \"p\" polygon (0,0) (1,1) }",
        "R = select x >= 1/0 from T",
        "\"unterminated",
        "R = select \u{1F300} >= 1 from T",
        "{}{}{}))((",
    ] {
        let _ = parse_script(input);
        let _ = parse_cdb(input);
    }
}

/// Script input that reaches an operator precondition is rejected with a
/// positioned error before evaluation: a negative buffer distance would
/// otherwise trip the spatial layer's non-negativity assertion.
#[test]
fn negative_buffer_distance_is_a_typed_error() {
    let mut catalog = cqa_core::Catalog::new();
    parse_cdb(
        "spatial Wells { feature \"w\" point (3, 3); }\n\
         spatial Cities { feature \"c\" point (0, 0); }\n",
    )
    .unwrap()
    .load_into(&mut catalog);
    let mut runner = ScriptRunner::new(catalog);
    let err = runner.run("R = bufferjoin Wells and Cities distance -1\n").unwrap_err();
    assert!(err.to_string().contains("distance must be non-negative"), "{}", err);
    assert_eq!(runner.run("R = bufferjoin Wells and Cities distance 5\n").unwrap().len(), 1);
}

/// A point coordinate beyond f64 range becomes an infinite bounding-box
/// side; a spatial relation larger than one R\*-tree node must still load
/// (forced reinsertion meets NaN center distances) and answer
/// whole-feature queries.
#[test]
fn coordinates_beyond_f64_range_load_and_query() {
    let huge = format!("1{}", "0".repeat(400));
    let mut text = String::from("spatial Pts {\n");
    for i in 0..150 {
        let x = match i % 10 {
            0 => format!("-{}", huge),
            5 => huge.clone(),
            _ => i.to_string(),
        };
        text.push_str(&format!("  feature \"p{}\" point ({}, {});\n", i, x, i));
    }
    text.push_str("}\n");
    let mut catalog = cqa_core::Catalog::new();
    parse_cdb(&text).unwrap().load_into(&mut catalog);
    let mut runner = ScriptRunner::new(catalog);
    let nearest = runner.run("K = knearest Pts and Pts k 2\n").unwrap();
    assert_eq!(nearest.len(), 300, "two neighbours per feature");
    let near = runner.run("B = bufferjoin Pts and Pts distance 1\n").unwrap();
    assert!(near.len() >= 150, "every feature is within 1 of itself");
}

/// Constant-only conjuncts are decided once per selection, exactly as a
/// per-tuple evaluation decides them: `1 <> 2` passes every tuple, while
/// `1 <> 1` and `1 = 2` pass none. `<>` has no linear atom, so the
/// constant `1 <> 2` must be decided from its expression, not as an atom.
#[test]
fn constant_conjuncts_decide_like_per_tuple_predicates() {
    let mut catalog = cqa_core::Catalog::new();
    parse_cdb(
        "relation R { id: string relational; x: rational constraint; }\n\
         tuple R { id = \"a\"; x >= 0; x <= 4 }\n\
         tuple R { id = \"b\"; x >= 6; x <= 10 }\n",
    )
    .unwrap()
    .load_into(&mut catalog);
    let mut runner = ScriptRunner::new(catalog);
    let plain = runner.run("S = select x >= 5 from R\n").unwrap();
    assert_eq!(plain.len(), 1);
    let ne = runner.run("S = select 1 <> 2, x >= 5 from R\n").unwrap();
    assert_eq!(ne.tuples(), plain.tuples());
    for never in ["select 1 <> 1, x >= 5 from R", "select 1 = 2, x >= 5 from R"] {
        assert!(runner.run(&format!("S = {}\n", never)).unwrap().is_empty(), "{}", never);
    }
}
