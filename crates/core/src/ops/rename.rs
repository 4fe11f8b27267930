//! The rename operator `ρ_{B|A}(R)` (§2.4).
//!
//! Renaming touches only the schema: constraint variables are positional,
//! and positions do not change.

use crate::error::Result;
use crate::relation::HRelation;

/// Renames attribute `from` to `to`.
pub fn rename(rel: &HRelation, from: &str, to: &str) -> Result<HRelation> {
    let schema = rel.schema().rename(from, to)?;
    Ok(HRelation::from_parts(schema, rel.tuples().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::join::join;
    use crate::par::{ExecOptions, ExecStats};
    use crate::schema::{AttrDef, Schema};
    use crate::value::Value;

    #[test]
    fn rename_preserves_content() {
        let s = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
        let mut r = HRelation::new(s);
        r.insert_with(|b| b.range("x", 0, 5)).unwrap();
        let out = rename(&r, "x", "z").unwrap();
        assert!(out.schema().contains("z"));
        assert!(out.contains_point(&[Value::int(3)]).unwrap());
        assert!(rename(&r, "nope", "z").is_err());
        assert!(rename(&r, "x", "x").is_err());
    }

    #[test]
    fn rename_enables_self_join() {
        // ρ is what makes self-joins expressible in the algebra: R(x) ⋈
        // ρ_{y|x}(R) is the cross product of R with itself.
        let s = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
        let mut r = HRelation::new(s);
        r.insert_with(|b| b.range("x", 0, 1)).unwrap();
        r.insert_with(|b| b.range("x", 5, 6)).unwrap();
        let renamed = rename(&r, "x", "y").unwrap();
        let out = join(&r, &renamed, &ExecOptions::default(), &ExecStats::new()).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.contains_point(&[Value::int(0), Value::int(6)]).unwrap());
    }
}
