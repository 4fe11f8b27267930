//! The `.cdb` file format: schema declarations, constraint tuples, and
//! spatial (vector-model) relations.
//!
//! ```text
//! relation Land {
//!   landId: string relational;
//!   x: rational constraint;
//!   y: rational constraint;
//! }
//!
//! tuple Land { landId = "A"; 0 <= x; x <= 2; 3 <= y; y <= 6 }
//!
//! spatial Roads {
//!   feature "r1" polyline (0, 0) (10, 5) (20, 5);
//!   feature "lake" polygon (0, 0) (4, 0) (4, 4) (0, 4);
//!   feature "well" point (3, 3);
//! }
//! ```
//!
//! Tuple conditions are the same comparisons as query selections; an
//! equality pinning a relational attribute (`landId = "A"`, `age = 30`)
//! stores a value, everything else becomes a constraint atom over the
//! schema's constraint attributes. Spatial relations use the *vector*
//! representation directly — the §6 flexibility — and can be converted to
//! constraint form through `cqa_spatial::decompose`.

use crate::ast::{AstOp, Cond, CondSide};
use crate::lex::{lex, LangError, Tok};
use crate::parse::Parser;
use cqa_core::{AttrDef, AttrKind, AttrType, Catalog, HRelation, Schema, Tuple, Value};
use cqa_num::Rat;
use cqa_spatial::{Feature, Geometry, Point, SpatialRelation};
use std::collections::BTreeMap;

/// The parsed contents of a `.cdb` file.
#[derive(Default)]
pub struct CdbFile {
    /// Heterogeneous relations, in declaration order.
    pub relations: Vec<(String, HRelation)>,
    /// Spatial relations, in declaration order.
    pub spatial: Vec<(String, SpatialRelation)>,
}

impl CdbFile {
    /// Registers everything into a catalog.
    pub fn load_into(self, catalog: &mut Catalog) {
        for (name, rel) in self.relations {
            catalog.register(name, rel);
        }
        for (name, rel) in self.spatial {
            catalog.register_spatial(name, rel);
        }
    }
}

/// Parses a `.cdb` file.
pub fn parse_cdb(input: &str) -> Result<CdbFile, LangError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut file = CdbFile::default();
    let mut relations: BTreeMap<String, HRelation> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();

    loop {
        p.skip_newlines();
        if p.peek_is(&Tok::Eof) {
            break;
        }
        if p.peek_keyword("relation") {
            p.next();
            let name = p.ident()?;
            let schema = parse_schema_block(&mut p)?;
            if relations.insert(name.clone(), HRelation::new(schema)).is_none() {
                order.push(name);
            }
        } else if p.peek_keyword("tuple") {
            p.next();
            let name = p.ident()?;
            let line = p.peek().line;
            let conds = parse_tuple_block(&mut p)?;
            let rel = relations
                .get_mut(&name)
                .ok_or_else(|| LangError::new(line, 1, format!("tuple for undeclared relation {:?}", name)))?;
            let tuple = build_tuple(rel.schema(), &conds, line)?;
            rel.insert(tuple);
        } else if p.peek_keyword("spatial") {
            p.next();
            let name = p.ident()?;
            let rel = parse_spatial_block(&mut p)?;
            file.spatial.push((name, rel));
        } else {
            return Err(LangError::new(
                p.peek().line,
                p.peek().col,
                format!("expected 'relation', 'tuple', or 'spatial', found {}", p.peek().tok),
            ));
        }
    }
    for name in order {
        let rel = relations.remove(&name).expect("ordered key");
        file.relations.push((name, rel));
    }
    Ok(file)
}

pub(crate) fn parse_schema_block(p: &mut Parser) -> Result<Schema, LangError> {
    p.expect(Tok::LBrace)?;
    let mut attrs = Vec::new();
    loop {
        if p.peek_is(&Tok::RBrace) {
            p.next();
            break;
        }
        let name = p.ident()?;
        p.expect(Tok::Colon)?;
        let line = p.peek().line;
        let ty_word = p.ident()?;
        let ty = match ty_word.to_ascii_lowercase().as_str() {
            "string" => AttrType::Str,
            "rational" => AttrType::Rat,
            other => {
                return Err(LangError::new(line, 1, format!("unknown type {:?} (string or rational)", other)))
            }
        };
        let kind_word = p.ident()?;
        let kind = match kind_word.to_ascii_lowercase().as_str() {
            "relational" => AttrKind::Relational,
            "constraint" => AttrKind::Constraint,
            other => {
                return Err(LangError::new(
                    line,
                    1,
                    format!("unknown kind {:?} (relational or constraint)", other),
                ))
            }
        };
        attrs.push(AttrDef { name, ty, kind });
        if p.peek_is(&Tok::Semi) {
            p.next();
        }
    }
    let line = p.peek().line;
    Schema::new(attrs).map_err(|e| LangError::new(line, 1, e.to_string()))
}

pub(crate) fn parse_tuple_block(p: &mut Parser) -> Result<Vec<Cond>, LangError> {
    p.expect(Tok::LBrace)?;
    let mut conds = Vec::new();
    loop {
        if p.peek_is(&Tok::RBrace) {
            p.next();
            break;
        }
        conds.push(p.condition()?);
        if p.peek_is(&Tok::Semi) {
            p.next();
        }
    }
    Ok(conds)
}

/// Turns the conditions of a `tuple` block into a heterogeneous tuple.
pub(crate) fn build_tuple(schema: &Schema, conds: &[Cond], line: usize) -> Result<Tuple, LangError> {
    let err = |msg: String| LangError::new(line, 1, msg);
    let mut builder = Tuple::builder(schema);
    for cond in conds {
        // String value: attr = "literal".
        if let Some((attr, value)) = as_string_assignment(cond) {
            if cond.op != AstOp::Eq {
                return Err(err("string attributes take '=' only in tuples".into()));
            }
            builder = builder.set(&attr, Value::str(value));
            continue;
        }
        // Relational rational value: attr = number.
        if let Some((attr, value)) = as_numeric_assignment(cond, schema) {
            builder = builder.set(&attr, Value::rat(value));
            continue;
        }
        // Otherwise: a constraint atom over constraint attributes.
        let pred = crate::lower::lower_condition(cond, line)?;
        match pred {
            cqa_core::plan::Predicate::Linear { terms, constant, op } => {
                let mut expr = cqa_constraints::LinExpr::constant(constant);
                for (name, coeff) in terms {
                    let var = schema
                        .var_of(&name)
                        .map_err(|e| err(e.to_string()))?;
                    expr.add_term(var, coeff);
                }
                let atom = op
                    .atom(expr)
                    .map_err(|_| err("'<>' cannot appear in a constraint tuple".into()))?;
                builder = builder.atom(atom);
            }
            cqa_core::plan::Predicate::Str { .. } => {
                unreachable!("string assignments handled above")
            }
        }
    }
    builder.build().map_err(|e| err(e.to_string()))
}

/// Recognizes `attr = "literal"` (either orientation).
fn as_string_assignment(cond: &Cond) -> Option<(String, String)> {
    match (&cond.lhs, &cond.rhs) {
        (CondSide::Linear { terms, constant }, CondSide::Str(s))
        | (CondSide::Str(s), CondSide::Linear { terms, constant })
            if constant.is_zero() && terms.len() == 1 && terms[0].1 == Rat::one() =>
        {
            Some((terms[0].0.clone(), s.clone()))
        }
        _ => None,
    }
}

/// Recognizes `attr = number` where `attr` is a *relational* rational.
fn as_numeric_assignment(cond: &Cond, schema: &Schema) -> Option<(String, Rat)> {
    if cond.op != AstOp::Eq {
        return None;
    }
    let pick = |a: &CondSide, b: &CondSide| -> Option<(String, Rat)> {
        match (a, b) {
            (CondSide::Linear { terms, constant }, CondSide::Linear { terms: t2, constant: c2 })
                if constant.is_zero()
                    && terms.len() == 1
                    && terms[0].1 == Rat::one()
                    && t2.is_empty() =>
            {
                Some((terms[0].0.clone(), c2.clone()))
            }
            _ => None,
        }
    };
    let (attr, value) = pick(&cond.lhs, &cond.rhs).or_else(|| pick(&cond.rhs, &cond.lhs))?;
    let def = schema.attr(&attr).ok()?;
    if def.kind == AttrKind::Relational && def.ty == AttrType::Rat {
        Some((attr, value))
    } else {
        None
    }
}

fn parse_spatial_block(p: &mut Parser) -> Result<SpatialRelation, LangError> {
    p.expect(Tok::LBrace)?;
    let mut rel = SpatialRelation::new();
    loop {
        if p.peek_is(&Tok::RBrace) {
            p.next();
            break;
        }
        p.keyword("feature")?;
        let line = p.peek().line;
        let id = match p.next().tok {
            Tok::Str(s) => s,
            other => {
                return Err(LangError::new(line, 1, format!("expected feature id string, found {}", other)))
            }
        };
        let kind = p.ident()?.to_ascii_lowercase();
        let mut points = Vec::new();
        while p.peek_is(&Tok::LParen) {
            p.next();
            let x = p.number()?;
            p.expect(Tok::Comma)?;
            let y = p.number()?;
            p.expect(Tok::RParen)?;
            points.push(Point::new(x, y));
        }
        let geom = match kind.as_str() {
            "wkt" => {
                if !points.is_empty() {
                    return Err(LangError::new(line, 1, "wkt takes a quoted string, not coordinates"));
                }
                let text = match p.next().tok {
                    Tok::Str(s) => s,
                    other => {
                        return Err(LangError::new(
                            line,
                            1,
                            format!("expected a WKT string literal, found {}", other),
                        ))
                    }
                };
                cqa_spatial::wkt::parse_wkt(&text)
                    .map_err(|e| LangError::new(line, 1, e.to_string()))?
            }
            "point" => {
                if points.len() != 1 {
                    return Err(LangError::new(line, 1, "point takes exactly one coordinate pair"));
                }
                Geometry::Point(points.pop().unwrap())
            }
            "polyline" => Geometry::polyline(points)
                .map_err(|e| LangError::new(line, 1, e.to_string()))?,
            "polygon" => Geometry::polygon(points)
                .map_err(|e| LangError::new(line, 1, e.to_string()))?,
            other => {
                return Err(LangError::new(
                    line,
                    1,
                    format!("unknown geometry {:?} (point, polyline, or polygon)", other),
                ))
            }
        };
        rel.insert(Feature::new(id, geom));
        if p.peek_is(&Tok::Semi) {
            p.next();
        }
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
relation Land {
  landId: string relational;
  x: rational constraint;
  y: rational constraint;
}

tuple Land { landId = "A"; 0 <= x; x <= 2; 3 <= y; y <= 6 }
tuple Land { landId = "B"; x >= 4; x <= 6; y >= 0; y <= 2 }

relation People {
  name: string relational;
  age: rational relational;
}
tuple People { name = "ann"; age = 40 }

spatial Roads {
  feature "r1" polyline (0, 0) (10, 5);
  feature "sq" polygon (0, 0) (4, 0) (4, 4) (0, 4);
  feature "w" point (3, 3);
}
"#;

    #[test]
    fn parses_relations_and_tuples() {
        let file = parse_cdb(SAMPLE).unwrap();
        assert_eq!(file.relations.len(), 2);
        let (name, land) = &file.relations[0];
        assert_eq!(name, "Land");
        assert_eq!(land.len(), 2);
        assert!(land
            .contains_point(&[Value::str("A"), Value::int(1), Value::int(4)])
            .unwrap());
        assert!(!land
            .contains_point(&[Value::str("A"), Value::int(5), Value::int(1)])
            .unwrap());
        assert!(land
            .contains_point(&[Value::str("B"), Value::int(5), Value::int(1)])
            .unwrap());
        let (_, people) = &file.relations[1];
        assert_eq!(people.tuples()[0].value(1), Some(&Value::int(40)));
    }

    #[test]
    fn parses_spatial_features() {
        let file = parse_cdb(SAMPLE).unwrap();
        assert_eq!(file.spatial.len(), 1);
        let (name, roads) = &file.spatial[0];
        assert_eq!(name, "Roads");
        assert_eq!(roads.len(), 3);
        assert!(roads.by_id("sq").is_some());
    }

    #[test]
    fn loads_into_catalog() {
        let mut cat = Catalog::new();
        parse_cdb(SAMPLE).unwrap().load_into(&mut cat);
        assert!(cat.get("Land").is_ok());
        assert!(cat.get_spatial("Roads").is_ok());
    }

    #[test]
    fn rational_constraint_syntax() {
        let file = parse_cdb(
            "relation H { t: rational constraint; x: rational constraint }\n\
             tuple H { t >= 0; t <= 1; x = 2*t + 1/2 }\n",
        )
        .unwrap();
        let (_, h) = &file.relations[0];
        // At t = 1/4, x = 1.
        assert!(h
            .contains_point(&[Value::rat(Rat::from_pair(1, 4)), Value::int(1)])
            .unwrap());
        assert!(!h.contains_point(&[Value::int(0), Value::int(1)]).unwrap());
    }

    #[test]
    fn wkt_features() {
        let file = parse_cdb(
            "spatial G {\n\
               feature \"pt\" wkt \"POINT (2.5 7)\";\n\
               feature \"road\" wkt \"LINESTRING (0 0, 10 5)\";\n\
               feature \"park\" wkt \"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\";\n\
             }\n",
        )
        .unwrap();
        let (_, g) = &file.spatial[0];
        assert_eq!(g.len(), 3);
        assert!(matches!(g.by_id("park").unwrap().geom, cqa_spatial::Geometry::Polygon(_)));
        // Round trip back out through the exporter.
        let wkt = cqa_spatial::wkt::to_wkt(&g.by_id("pt").unwrap().geom);
        assert_eq!(wkt, "POINT (2.5 7)");
        // Bad WKT carries a position-bearing error.
        let err = match parse_cdb("spatial G { feature \"x\" wkt \"TRIANGLE (0 0)\"; }") {
            Err(e) => e,
            Ok(_) => panic!("bad WKT must be rejected"),
        };
        assert!(err.msg.contains("unknown geometry type"), "{}", err);
    }

    #[test]
    fn errors() {
        assert!(parse_cdb("tuple Ghost { x = 1 }").is_err());
        assert!(parse_cdb("relation R { x: complex constraint }").is_err());
        assert!(parse_cdb("relation R { x: string constraint }").is_err());
        assert!(parse_cdb("spatial S { feature \"p\" point (0,0) (1,1); }").is_err());
        assert!(parse_cdb("spatial S { feature \"p\" blob (0,0); }").is_err());
        assert!(parse_cdb("relation R { x: rational constraint }\ntuple R { x <> 3 }").is_err());
    }
}
