//! Durable catalogs: saving and opening a whole database directory.
//!
//! A saved database is a directory:
//!
//! ```text
//! mydb/
//!   manifest.txt     # one line per relation: NAME <TAB> FILE
//!   rel_0.db         # page file (cqa-storage FileDisk) per relation
//!   rel_1.db
//!   spatial.cdb      # vector relations, as WKT features in .cdb syntax
//! ```
//!
//! Heterogeneous relations persist exactly (see `cqa_core::persist`);
//! spatial relations persist through the WKT exporter, which is exact for
//! coordinates whose decimal expansion terminates (and flagged otherwise).

use crate::lex::LangError;
use crate::schema_def::parse_cdb;
use cqa_core::persist::{load_relation, save_relation, PersistError};
use cqa_core::Catalog;
use cqa_spatial::wkt::to_wkt_checked;
use cqa_storage::{BufferPool, FileDisk, HeapFile, PageId, StorageError};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Component, Path};

/// Errors raised while saving or opening a database directory.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Page-file failure.
    Storage(StorageError),
    /// Relation (de)serialization failure.
    Persist(PersistError),
    /// The `spatial.cdb` file does not parse.
    Spatial(LangError),
    /// The manifest is malformed.
    BadManifest(String),
    /// A spatial coordinate could not be written exactly.
    InexactGeometry(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "io error: {}", e),
            DbError::Storage(e) => write!(f, "storage error: {}", e),
            DbError::Persist(e) => write!(f, "relation error: {}", e),
            DbError::Spatial(e) => write!(f, "spatial file error: {}", e),
            DbError::BadManifest(what) => write!(f, "bad manifest: {}", what),
            DbError::InexactGeometry(id) => write!(
                f,
                "feature {:?} has coordinates with no finite decimal expansion; \
                 refusing a lossy save",
                id
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<PersistError> for DbError {
    fn from(e: PersistError) -> Self {
        DbError::Persist(e)
    }
}

/// Saves every relation of the catalog under `dir` (created if missing;
/// existing database files in it are overwritten).
pub fn save_catalog(catalog: &Catalog, dir: impl AsRef<Path>) -> Result<(), DbError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let mut manifest = String::new();
    for (i, name) in catalog.names().enumerate() {
        if name.contains('\t') || name.contains('\n') {
            return Err(DbError::BadManifest(format!(
                "relation name {:?} contains separator characters",
                name
            )));
        }
        let file = format!("rel_{}.db", i);
        let path = dir.join(&file);
        // Recreate from scratch: FileDisk appends to existing files.
        if path.exists() {
            fs::remove_file(&path)?;
        }
        let rel = catalog.get(name).expect("listed name");
        let mut pool = BufferPool::new(FileDisk::open(&path)?, 16);
        save_relation(rel, &mut pool)?;
        pool.into_disk()?;
        manifest.push_str(&format!("{}\t{}\n", name, file));
    }
    fs::write(dir.join("manifest.txt"), manifest)?;

    // Spatial relations: WKT features in `.cdb` syntax. The syntax has no
    // string escapes and names must be identifiers, so reject anything the
    // generated file could not faithfully express.
    let mut spatial = String::new();
    for name in catalog.spatial_names() {
        let identifier = !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_alphanumeric() || c == '_');
        if !identifier {
            return Err(DbError::BadManifest(format!(
                "spatial relation name {:?} is not an identifier and cannot be saved",
                name
            )));
        }
        let rel = catalog.get_spatial(name).expect("listed name");
        spatial.push_str(&format!("spatial {} {{\n", name));
        for feature in rel.features() {
            if feature.id.contains('"') || feature.id.contains('\n') {
                return Err(DbError::BadManifest(format!(
                    "feature id {:?} contains characters the .cdb syntax cannot quote",
                    feature.id
                )));
            }
            let (wkt, exact) = to_wkt_checked(&feature.geom);
            if !exact {
                return Err(DbError::InexactGeometry(feature.id.clone()));
            }
            spatial.push_str(&format!("  feature \"{}\" wkt \"{}\";\n", feature.id, wkt));
        }
        spatial.push_str("}\n");
    }
    let spatial_path = dir.join("spatial.cdb");
    let mut f = fs::File::create(spatial_path)?;
    f.write_all(spatial.as_bytes())?;
    Ok(())
}

/// Opens a database directory saved by [`save_catalog`].
pub fn open_catalog(dir: impl AsRef<Path>) -> Result<Catalog, DbError> {
    let dir = dir.as_ref();
    let mut catalog = Catalog::new();
    let manifest = fs::read_to_string(dir.join("manifest.txt"))?;
    for line in manifest.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let (name, file) = line
            .split_once('\t')
            .ok_or_else(|| DbError::BadManifest(format!("malformed line {:?}", line)))?;
        // Only a plain file name inside `dir` that exists already: opening
        // must neither reach outside the directory nor create a file.
        let mut parts = Path::new(file).components();
        if !matches!((parts.next(), parts.next()), (Some(Component::Normal(_)), None)) {
            return Err(DbError::BadManifest(format!(
                "relation file {:?} is not a file name in the database directory",
                file
            )));
        }
        let path = dir.join(file);
        if !fs::metadata(&path)?.is_file() {
            return Err(DbError::BadManifest(format!("relation file {:?} is not a file", file)));
        }
        let mut pool = BufferPool::new(FileDisk::open(&path)?, 16);
        let pages: Vec<PageId> = (0..pool.num_pages()).map(PageId).collect();
        let heap = HeapFile::from_pages(pages);
        let rel = load_relation(&heap, &mut pool)?;
        catalog.register(name.to_string(), rel);
    }
    let spatial_path = dir.join("spatial.cdb");
    if spatial_path.exists() {
        let text = fs::read_to_string(spatial_path)?;
        parse_cdb(&text).map_err(DbError::Spatial)?.load_into(&mut catalog);
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_core::{AttrDef, HRelation, Schema};
    use cqa_num::Rat;
    use cqa_spatial::{Feature, Geometry, Point, SpatialRelation};
    use std::io::Seek;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cqa_db_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![
            AttrDef::str_rel("id"),
            AttrDef::rat_con("x"),
        ])
        .unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("id", "a").range_rat("x", Rat::from_pair(-1, 3), Rat::from_pair(22, 7)))
            .unwrap();
        r.insert_with(|b| b).unwrap(); // broad tuple with null id
        cat.register("R", r);
        let schema2 = Schema::new(vec![AttrDef::rat_rel("n")]).unwrap();
        let mut r2 = HRelation::new(schema2);
        r2.insert_with(|b| b.set("n", 42)).unwrap();
        cat.register("S two", r2); // name with a space
        cat.register_spatial(
            "Roads",
            SpatialRelation::from_features([
                Feature::new(
                    "r1",
                    Geometry::polyline(vec![Point::from_ints(0, 0), Point::from_ints(10, 5)])
                        .unwrap(),
                ),
                Feature::new(
                    "half",
                    Geometry::Point(Point::new(Rat::from_pair(5, 2), Rat::from_int(1))),
                ),
            ]),
        );
        cat
    }

    #[test]
    fn save_open_roundtrip() {
        let dir = tempdir("roundtrip");
        let cat = sample_catalog();
        save_catalog(&cat, &dir).unwrap();
        let back = open_catalog(&dir).unwrap();
        assert_eq!(back.get("R").unwrap(), cat.get("R").unwrap());
        assert_eq!(back.get("S two").unwrap(), cat.get("S two").unwrap());
        let roads = back.get_spatial("Roads").unwrap();
        assert_eq!(roads.len(), 2);
        assert_eq!(
            roads.by_id("half").unwrap().geom,
            cat.get_spatial("Roads").unwrap().by_id("half").unwrap().geom
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resave_overwrites_cleanly() {
        let dir = tempdir("resave");
        let cat = sample_catalog();
        save_catalog(&cat, &dir).unwrap();
        save_catalog(&cat, &dir).unwrap(); // second save must not append
        let back = open_catalog(&dir).unwrap();
        assert_eq!(back.get("R").unwrap().len(), cat.get("R").unwrap().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inexact_geometry_refused() {
        let dir = tempdir("inexact");
        let mut cat = Catalog::new();
        cat.register_spatial(
            "Odd",
            SpatialRelation::from_features([Feature::new(
                "third",
                Geometry::Point(Point::new(Rat::from_pair(1, 3), Rat::from_int(0))),
            )]),
        );
        assert!(matches!(save_catalog(&cat, &dir), Err(DbError::InexactGeometry(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrepresentable_spatial_content_refused() {
        let dir = tempdir("unrep");
        // A spatial relation name with a space cannot be an identifier.
        let mut cat = Catalog::new();
        cat.register_spatial("My Roads", SpatialRelation::new());
        assert!(matches!(save_catalog(&cat, &dir), Err(DbError::BadManifest(_))));
        // A feature id with an embedded quote cannot be quoted.
        let mut cat = Catalog::new();
        cat.register_spatial(
            "Roads",
            SpatialRelation::from_features([Feature::new(
                "say \"hi\"",
                Geometry::Point(Point::from_ints(0, 0)),
            )]),
        );
        assert!(matches!(save_catalog(&cat, &dir), Err(DbError::BadManifest(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_corrupt_directories() {
        let missing = tempdir("missing");
        assert!(matches!(open_catalog(&missing), Err(DbError::Io(_))));
        let corrupt = tempdir("corrupt");
        std::fs::create_dir_all(&corrupt).unwrap();
        std::fs::write(corrupt.join("manifest.txt"), "no tab separator here\n").unwrap();
        assert!(matches!(open_catalog(&corrupt), Err(DbError::BadManifest(_))));
        std::fs::write(corrupt.join("manifest.txt"), "R\tmissing_file.db\n").unwrap();
        assert!(open_catalog(&corrupt).is_err());
        std::fs::remove_dir_all(&corrupt).unwrap();
    }

    #[test]
    fn manifest_files_outside_the_directory_or_missing_are_refused() {
        let dir = tempdir("escape");
        save_catalog(&sample_catalog(), &dir).unwrap();
        // Targets in the existing parent directory, so a bug that created
        // them could succeed.
        let outside =
            std::env::temp_dir().join(format!("cqa_db_outside_{}.db", std::process::id()));
        let sibling = format!("cqa_db_sibling_{}.db", std::process::id());
        let _ = std::fs::remove_file(&outside);
        let cases = [
            (format!("R\t{}\n", outside.display()), outside.clone()),
            (format!("R\t../{}\n", sibling), std::env::temp_dir().join(&sibling)),
            ("R\tmissing.db\n".to_string(), dir.join("missing.db")),
        ];
        for (line, path) in &cases {
            std::fs::write(dir.join("manifest.txt"), line).unwrap();
            match open_catalog(&dir) {
                Err(DbError::BadManifest(_)) | Err(DbError::Io(_)) => {}
                other => panic!("{:?}: expected a typed refusal, got {:?}", line, other.err()),
            }
            assert!(!path.exists(), "{:?}: opening created {}", line, path.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every single-bit flip of a saved relation file either reopens as
    /// the saved relation or fails with a typed error — never as a
    /// different relation.
    #[test]
    fn bit_flipped_relation_file_never_reopens_as_a_different_relation() {
        let dir = tempdir("flips");
        let mut land = HRelation::new(
            Schema::new(vec![
                AttrDef::str_rel("landId"),
                AttrDef::rat_con("x"),
                AttrDef::rat_con("y"),
            ])
            .unwrap(),
        );
        land.insert_with(|b| b.set("landId", "A").range("x", 0, 4).range("y", 0, 4)).unwrap();
        land.insert_with(|b| b.set("landId", "B").range("x", 6, 10).range("y", 0, 4)).unwrap();
        let mut cat = Catalog::new();
        cat.register("Land", land);
        save_catalog(&cat, &dir).unwrap();
        let bytes = std::fs::read(dir.join("rel_0.db")).unwrap();
        let mut file = fs::OpenOptions::new().write(true).open(dir.join("rel_0.db")).unwrap();
        let mut put = |at: usize, byte: u8| {
            file.seek(std::io::SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&[byte]).unwrap();
        };
        for bit in 0..bytes.len() * 8 {
            let at = bit / 8;
            put(at, bytes[at] ^ (1 << (bit % 8)));
            let reopened = open_catalog(&dir);
            put(at, bytes[at]);
            match reopened {
                Ok(back) => {
                    assert_eq!(back.get("Land").unwrap(), cat.get("Land").unwrap(), "bit {}", bit)
                }
                Err(DbError::Storage(_)) | Err(DbError::Persist(_)) => {}
                Err(other) => panic!("bit {}: unexpected error class {}", bit, other),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
