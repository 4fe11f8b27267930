//! Persistence of heterogeneous relations through the storage layer.
//!
//! Figure 1 of the paper puts a disk access layer beneath the CQA layer;
//! this module is the bridge: schemas and tuples serialize into heap-file
//! records ([`cqa_storage::HeapFile`]), one record per tuple, with the
//! schema in record 0. Rationals serialize exactly (no rounding — the
//! representation invariant of §3.3 survives a round trip through disk).
//!
//! Format (all integers little-endian, via [`cqa_storage::codec`]):
//!
//! ```text
//! record 0:            schema = arity, then per attribute:
//!                      name, type tag (0 str, 1 rat), kind tag (0 rel, 1 con)
//! records 1..:         tuple = per attribute value slot:
//!                        0 = absent, 1 = string, 2 = rational
//!                      then the constraint part: atom count, then per atom:
//!                        rel tag (0 =, 1 ≤, 2 <), term count,
//!                        per term (var index, coefficient), constant
//! rational:            numerator bytes, denominator bytes (BigInt encoding)
//! ```
//!
//! A tuple record must fit its schema: a constraint attribute's slot is
//! absent, a relational slot holds absent or a value of the attribute's
//! type, and every atom names constraint attributes only. A record that
//! breaks this decodes to [`PersistError::Corrupt`], so no operator ever
//! meets a tuple that the tuple builder would have refused.

use crate::error::CoreError;
use crate::relation::HRelation;
use crate::schema::{AttrDef, AttrKind, AttrType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use cqa_constraints::{Atom, Conjunction, LinExpr, Rel, Var};
use cqa_num::{BigInt, Rat};
use cqa_storage::codec::{Reader, Writer};
use cqa_storage::{BufferPool, DiskManager, HeapFile, StorageError};

/// Errors from persistence: storage failures or malformed records.
#[derive(Debug)]
pub enum PersistError {
    /// The storage layer failed.
    Storage(StorageError),
    /// The records do not decode to a valid relation.
    Corrupt(&'static str),
    /// Schema-level validation failed after decoding.
    Core(CoreError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Storage(e) => write!(f, "storage error: {}", e),
            PersistError::Corrupt(what) => write!(f, "corrupt relation file: {}", what),
            PersistError::Core(e) => write!(f, "invalid persisted relation: {}", e),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl From<CoreError> for PersistError {
    fn from(e: CoreError) -> Self {
        PersistError::Core(e)
    }
}

type PResult<T> = std::result::Result<T, PersistError>;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_bigint(w: &mut Writer, v: &BigInt) {
    w.bytes(&v.to_bytes());
}

fn write_rat(w: &mut Writer, r: &Rat) {
    write_bigint(w, r.numer());
    write_bigint(w, r.denom());
}

fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(schema.arity() as u32);
    for a in schema.attrs() {
        w.str(&a.name);
        w.u8(match a.ty {
            AttrType::Str => 0,
            AttrType::Rat => 1,
        });
        w.u8(match a.kind {
            AttrKind::Relational => 0,
            AttrKind::Constraint => 1,
        });
    }
    w.finish()
}

fn encode_tuple(schema: &Schema, t: &Tuple) -> Vec<u8> {
    let mut w = Writer::new();
    for i in 0..schema.arity() {
        match t.value(i) {
            None => {
                w.u8(0);
            }
            Some(Value::Str(s)) => {
                w.u8(1);
                w.str(s);
            }
            Some(Value::Rat(r)) => {
                w.u8(2);
                write_rat(&mut w, r);
            }
        }
    }
    let atoms: Vec<&Atom> = t.constraint().atoms().collect();
    w.u32(atoms.len() as u32);
    for a in atoms {
        w.u8(match a.rel() {
            Rel::Eq => 0,
            Rel::Le => 1,
            Rel::Lt => 2,
        });
        let terms: Vec<(Var, &Rat)> = a.expr().terms().collect();
        w.u32(terms.len() as u32);
        for (v, c) in terms {
            w.u32(v.0);
            write_rat(&mut w, c);
        }
        write_rat(&mut w, a.expr().constant_term());
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn read_bigint(r: &mut Reader<'_>) -> PResult<BigInt> {
    BigInt::from_bytes(r.bytes()?).ok_or(PersistError::Corrupt("bad bigint"))
}

fn read_rat(r: &mut Reader<'_>) -> PResult<Rat> {
    let num = read_bigint(r)?;
    let den = read_bigint(r)?;
    if den.is_zero() || den.is_negative() {
        return Err(PersistError::Corrupt("bad rational denominator"));
    }
    Ok(Rat::new(num, den))
}

fn decode_schema(bytes: &[u8]) -> PResult<Schema> {
    let mut r = Reader::new(bytes);
    let arity = r.u32()? as usize;
    // An attribute costs at least 6 encoded bytes; an impossible arity is
    // corruption, and pre-allocating from it would be an abort vector.
    if arity > r.remaining() / 6 {
        return Err(PersistError::Corrupt("implausible arity"));
    }
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = r.str()?.to_string();
        let ty = match r.u8()? {
            0 => AttrType::Str,
            1 => AttrType::Rat,
            _ => return Err(PersistError::Corrupt("bad type tag")),
        };
        let kind = match r.u8()? {
            0 => AttrKind::Relational,
            1 => AttrKind::Constraint,
            _ => return Err(PersistError::Corrupt("bad kind tag")),
        };
        attrs.push(AttrDef { name, ty, kind });
    }
    if !r.at_end() {
        return Err(PersistError::Corrupt("trailing bytes after schema"));
    }
    Ok(Schema::new(attrs)?)
}

fn decode_tuple(schema: &Schema, bytes: &[u8]) -> PResult<Tuple> {
    let mut r = Reader::new(bytes);
    let mut values: Vec<Option<Value>> = Vec::with_capacity(schema.arity().min(bytes.len()));
    for a in schema.attrs() {
        let value = match r.u8()? {
            0 => None,
            1 => Some(Value::Str(r.str()?.to_string())),
            2 => Some(Value::Rat(read_rat(&mut r)?)),
            _ => return Err(PersistError::Corrupt("bad value tag")),
        };
        match (&value, a.kind, a.ty) {
            (None, _, _) => {}
            (Some(_), AttrKind::Constraint, _) => {
                return Err(PersistError::Corrupt("value at a constraint attribute"))
            }
            (Some(Value::Str(_)), _, AttrType::Str) | (Some(Value::Rat(_)), _, AttrType::Rat) => {}
            (Some(_), _, _) => return Err(PersistError::Corrupt("value of the wrong type")),
        }
        values.push(value);
    }
    let atom_count = r.u32()? as usize;
    let mut conj = Conjunction::tru();
    for _ in 0..atom_count {
        let rel = match r.u8()? {
            0 => Rel::Eq,
            1 => Rel::Le,
            2 => Rel::Lt,
            _ => return Err(PersistError::Corrupt("bad rel tag")),
        };
        let term_count = r.u32()? as usize;
        let mut expr = LinExpr::zero();
        for _ in 0..term_count {
            let var = r.u32()?;
            match schema.attrs().get(var as usize) {
                None => return Err(PersistError::Corrupt("atom variable out of schema range")),
                Some(a) if a.kind != AttrKind::Constraint => {
                    return Err(PersistError::Corrupt("atom names a relational attribute"))
                }
                Some(_) => {}
            }
            let coeff = read_rat(&mut r)?;
            expr.add_term(Var(var), coeff);
        }
        expr.set_constant(read_rat(&mut r)?);
        conj.add(Atom::new(expr, rel));
    }
    if !r.at_end() {
        return Err(PersistError::Corrupt("trailing bytes after tuple"));
    }
    Ok(Tuple::from_parts(values, conj))
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Writes the relation into a fresh heap file through the pool; returns
/// the heap file (whose page list addresses the relation on disk).
pub fn save_relation<D: DiskManager>(
    rel: &HRelation,
    pool: &mut BufferPool<D>,
) -> PResult<HeapFile> {
    let mut heap = HeapFile::create();
    heap.insert(pool, &encode_schema(rel.schema()))?;
    for t in rel.tuples() {
        heap.insert(pool, &encode_tuple(rel.schema(), t))?;
    }
    pool.flush()?;
    Ok(heap)
}

/// Reads a relation back from a heap file written by [`save_relation`].
pub fn load_relation<D: DiskManager>(
    heap: &HeapFile,
    pool: &mut BufferPool<D>,
) -> PResult<HRelation> {
    let records = heap.scan(pool)?;
    let mut iter = records.into_iter();
    let (_, schema_bytes) =
        iter.next().ok_or(PersistError::Corrupt("empty relation file"))?;
    let schema = decode_schema(&schema_bytes)?;
    let mut rel = HRelation::new(schema);
    for (_, bytes) in iter {
        let t = decode_tuple(rel.schema(), &bytes)?;
        rel.insert(t);
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_storage::MemDisk;

    fn pool() -> BufferPool<MemDisk> {
        BufferPool::new(MemDisk::new(), 16)
    }

    fn sample_relation() -> HRelation {
        let schema = Schema::new(vec![
            AttrDef::str_rel("name"),
            AttrDef::rat_rel("count"),
            AttrDef::rat_con("x"),
            AttrDef::rat_con("y"),
        ])
        .unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| {
            b.set("name", "alpha")
                .set("count", Value::rat(Rat::from_pair(22, 7)))
                .range("x", 0, 5)
                .range_rat("y", Rat::from_pair(-1, 3), Rat::from_pair(7, 2))
        })
        .unwrap();
        // A tuple with a null and an equational constraint linking x and y.
        r.insert_with(|b| {
            use cqa_constraints::{Atom, LinExpr};
            b.set("name", "beta").atom(Atom::eq(
                LinExpr::var(Var(2)),
                LinExpr::from_terms([(Var(3), Rat::from_int(2))], Rat::from_pair(1, 2)),
            ))
        })
        .unwrap();
        // A broad tuple: no values, no constraints.
        r.insert_with(|b| b).unwrap();
        r
    }

    #[test]
    fn roundtrip_preserves_relation_exactly() {
        let rel = sample_relation();
        let mut pool = pool();
        let heap = save_relation(&rel, &mut pool).unwrap();
        let back = load_relation(&heap, &mut pool).unwrap();
        assert_eq!(rel, back);
    }

    #[test]
    fn roundtrip_preserves_semantics_through_cold_pool() {
        let rel = sample_relation();
        let mut pool = pool();
        let heap = save_relation(&rel, &mut pool).unwrap();
        pool.clear().unwrap(); // force re-reads from the disk manager
        let back = load_relation(&heap, &mut pool).unwrap();
        let point = [
            Value::str("alpha"),
            Value::rat(Rat::from_pair(22, 7)),
            Value::int(3),
            Value::int(1),
        ];
        assert_eq!(
            rel.contains_point(&point).unwrap(),
            back.contains_point(&point).unwrap()
        );
    }

    #[test]
    fn huge_rationals_survive() {
        let schema = Schema::new(vec![AttrDef::rat_con("x")]).unwrap();
        let mut rel = HRelation::new(schema);
        let big = Rat::new(BigInt::from(3).pow(200), BigInt::from(7).pow(150));
        rel.insert_with(|b| b.range_rat("x", -&big, big.clone())).unwrap();
        let mut pool = pool();
        let heap = save_relation(&rel, &mut pool).unwrap();
        let back = load_relation(&heap, &mut pool).unwrap();
        assert_eq!(rel, back);
    }

    #[test]
    fn empty_relation_roundtrips() {
        let schema = Schema::new(vec![AttrDef::str_rel("only")]).unwrap();
        let rel = HRelation::new(schema);
        let mut pool = pool();
        let heap = save_relation(&rel, &mut pool).unwrap();
        let back = load_relation(&heap, &mut pool).unwrap();
        assert_eq!(rel, back);
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_records_detected() {
        let mut pool = pool();
        let mut heap = HeapFile::create();
        heap.insert(&mut pool, b"garbage that is not a schema").unwrap();
        assert!(load_relation(&heap, &mut pool).is_err());
        let empty = HeapFile::create();
        assert!(matches!(
            load_relation(&empty, &mut pool),
            Err(PersistError::Corrupt("empty relation file"))
        ));

        // Well-formed records that break the schema (name: string,
        // count: rational, x: constraint). A record is its slot tags (with
        // the string "a" or the rational 1 behind tags 1 and 2) and at most
        // one atom `v ≤ 1`.
        let schema = Schema::new(vec![
            AttrDef::str_rel("name"),
            AttrDef::rat_rel("count"),
            AttrDef::rat_con("x"),
        ])
        .unwrap();
        let cases: [([u8; 3], Option<u32>, &str); 4] = [
            ([0, 0, 2], None, "value at a constraint attribute"),
            ([0, 1, 0], None, "value of the wrong type"),
            ([2, 0, 0], None, "value of the wrong type"),
            ([0, 0, 0], Some(1), "atom names a relational attribute"),
        ];
        for (tags, atom_var, why) in cases {
            let mut w = Writer::new();
            for tag in tags {
                w.u8(tag);
                match tag {
                    1 => {
                        w.str("a");
                    }
                    2 => write_rat(&mut w, &Rat::one()),
                    _ => {}
                }
            }
            w.u32(atom_var.is_some() as u32);
            if let Some(v) = atom_var {
                w.u8(1).u32(1).u32(v); // `≤`, one term: v
                write_rat(&mut w, &Rat::one());
                write_rat(&mut w, &-Rat::one());
            }
            let mut heap = HeapFile::create();
            heap.insert(&mut pool, &encode_schema(&schema)).unwrap();
            heap.insert(&mut pool, &w.finish()).unwrap();
            match load_relation(&heap, &mut pool) {
                Err(PersistError::Corrupt(what)) => assert_eq!(what, why),
                other => panic!("{why}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_backed_roundtrip() {
        use cqa_storage::FileDisk;
        let dir = std::env::temp_dir().join(format!("cqa_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rel.db");
        let rel = sample_relation();
        let pages;
        {
            let disk = FileDisk::open(&path).unwrap();
            let mut pool = BufferPool::new(disk, 4);
            let heap = save_relation(&rel, &mut pool).unwrap();
            pages = heap.pages().to_vec();
            pool.into_disk().unwrap();
        }
        {
            let disk = FileDisk::open(&path).unwrap();
            let mut pool = BufferPool::new(disk, 4);
            let heap = HeapFile::from_pages(pages);
            let back = load_relation(&heap, &mut pool).unwrap();
            assert_eq!(rel, back);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
