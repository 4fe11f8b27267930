//! Persisting an R\*-tree one node per disk page.
//!
//! The in-memory tree counts *logical* node accesses; this module makes the
//! metric physical: nodes are serialized one-per-page through
//! [`cqa_storage`], and searches fetch pages through a [`BufferPool`], so
//! the pool's [`AccessStats`](cqa_storage::AccessStats) reports real page
//! traffic (with whatever caching the pool is configured for).
//!
//! A node's bytes start after the [`PAGE_HEADER`], so node pages are sealed
//! and verified by the pool like every other page: a corrupted node fails
//! a search with a typed error instead of steering it.

use crate::rect::Rect;
use crate::rstar::{NodeKind, RStarTree};
use cqa_storage::codec::{Reader, Writer};
use cqa_storage::page::PAGE_HEADER;
use cqa_storage::{BufferPool, DiskManager, PageId, Result, StorageError, PAGE_SIZE};

/// A persisted R\*-tree: the root page and nothing else in memory.
#[derive(Debug, Clone, Copy)]
pub struct PagedTree<const D: usize> {
    root: PageId,
}

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

/// Writes every node of `tree` to its own page, returning the paged tree.
pub fn persist<const D: usize, M: DiskManager>(
    tree: &RStarTree<D, u64>,
    pool: &mut BufferPool<M>,
) -> Result<PagedTree<D>> {
    let root = persist_node(tree, tree.root, pool)?;
    Ok(PagedTree { root })
}

fn persist_node<const D: usize, M: DiskManager>(
    tree: &RStarTree<D, u64>,
    id: crate::rstar::NodeId,
    pool: &mut BufferPool<M>,
) -> Result<PageId> {
    let node = tree.node(id);
    let mut w = Writer::new();
    match &node.kind {
        NodeKind::Leaf(entries) => {
            w.u8(KIND_LEAF).u32(entries.len() as u32);
            for (r, item) in entries {
                write_rect(&mut w, r);
                w.u64(*item);
            }
        }
        NodeKind::Internal(children) => {
            // Children first (post-order) so their page ids are known.
            let mut child_pages = Vec::with_capacity(children.len());
            for &c in children {
                child_pages.push((tree.node(c).rect, persist_node(tree, c, pool)?));
            }
            w.u8(KIND_INTERNAL).u32(child_pages.len() as u32);
            for (r, pid) in child_pages {
                write_rect(&mut w, &r);
                w.u64(pid.0);
            }
        }
    }
    let bytes = w.finish();
    if bytes.len() > PAGE_SIZE - PAGE_HEADER {
        return Err(StorageError::RecordTooLarge(bytes.len()));
    }
    let pid = pool.allocate()?;
    pool.with_page_mut(pid, |page| {
        page[PAGE_HEADER..PAGE_HEADER + bytes.len()].copy_from_slice(&bytes);
    })?;
    Ok(pid)
}

fn write_rect<const D: usize>(w: &mut Writer, r: &Rect<D>) {
    for d in 0..D {
        w.f64(r.lo[d]);
    }
    for d in 0..D {
        w.f64(r.hi[d]);
    }
}

fn read_rect<const D: usize>(r: &mut Reader<'_>) -> Result<Rect<D>> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for slot in lo.iter_mut() {
        *slot = r.f64()?;
    }
    for slot in hi.iter_mut() {
        *slot = r.f64()?;
    }
    Ok(Rect { lo, hi })
}

impl<const D: usize> PagedTree<D> {
    /// The root page.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Range search through the buffer pool. Returns matching ids and the
    /// number of page fetches this search performed (logical accesses; with
    /// a cold or unit-capacity pool these equal physical reads).
    pub fn search<M: DiskManager>(
        &self,
        pool: &mut BufferPool<M>,
        query: &Rect<D>,
    ) -> Result<(Vec<u64>, u64)> {
        let before = pool.stats().logical;
        let mut results = Vec::new();
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            pool.with_page(pid, |page| -> Result<()> {
                let mut r = Reader::new(&page[PAGE_HEADER..]);
                let kind = r.u8()?;
                for _ in 0..r.u32()? {
                    let rect: Rect<D> = read_rect(&mut r)?;
                    let payload = r.u64()?;
                    if rect.intersects(query) {
                        if kind == KIND_LEAF {
                            results.push(payload);
                        } else {
                            stack.push(PageId(payload));
                        }
                    }
                }
                Ok(())
            })??;
        }
        Ok((results, pool.stats().logical - before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rstar::RStarParams;
    use cqa_storage::MemDisk;

    #[test]
    fn persisted_search_matches_memory() {
        let mut tree: RStarTree<2, u64> = RStarTree::new(RStarParams::with_max(8));
        for i in 0..300u64 {
            let x = (i % 20) as f64 * 7.0;
            let y = (i / 20) as f64 * 7.0;
            tree.insert(Rect::new([x, y], [x + 3.0, y + 3.0]), i);
        }
        let mut pool = BufferPool::new(MemDisk::new(), 256);
        let paged = persist(&tree, &mut pool).unwrap();

        for q in [
            Rect::new([0.0, 0.0], [10.0, 10.0]),
            Rect::new([50.0, 50.0], [80.0, 60.0]),
            Rect::new([999.0, 999.0], [1000.0, 1000.0]),
        ] {
            let (mut mem, mem_acc) = tree.search(&q);
            let (mut disk, disk_acc) = paged.search(&mut pool, &q).unwrap();
            mem.sort();
            disk.sort();
            assert_eq!(mem, disk);
            assert_eq!(mem_acc, disk_acc, "page fetches mirror node accesses");
        }
    }

    #[test]
    fn node_pages_fit() {
        // Page-fitting parameters must produce nodes that serialize within
        // a page even when full.
        let params = RStarParams::fitting_page(2);
        let mut tree: RStarTree<2, u64> = RStarTree::new(params);
        for i in 0..2000u64 {
            let x = (i % 100) as f64;
            let y = (i / 100) as f64;
            tree.insert(Rect::new([x, y], [x + 0.5, y + 0.5]), i);
        }
        let mut pool = BufferPool::new(MemDisk::new(), 64);
        let paged = persist(&tree, &mut pool).unwrap();
        let (all, _) = paged.search(&mut pool, &tree.bounds()).unwrap();
        assert_eq!(all.len(), 2000);
    }

    #[test]
    fn cold_pool_counts_physical_reads() {
        let mut tree: RStarTree<1, u64> = RStarTree::new(RStarParams::with_max(4));
        for i in 0..100u64 {
            tree.insert(Rect::new([i as f64], [i as f64 + 0.5]), i);
        }
        let mut pool = BufferPool::new(MemDisk::new(), 1); // effectively no cache
        let paged = persist(&tree, &mut pool).unwrap();
        pool.clear().unwrap(); // drop the page left warm by persist
        pool.reset_stats();
        let (hits, logical) = paged.search(&mut pool, &Rect::new([10.0], [20.0])).unwrap();
        assert_eq!(hits.len(), 11);
        let stats = pool.stats();
        assert_eq!(stats.logical, logical);
        assert_eq!(stats.logical, stats.physical, "unit pool: every fetch hits disk");
    }

    #[test]
    fn corrupted_node_page_fails_search() {
        let mut tree: RStarTree<1, u64> = RStarTree::new(RStarParams::with_max(4));
        for i in 0..20u64 {
            tree.insert(Rect::new([i as f64], [i as f64 + 0.5]), i);
        }
        let mut pool = BufferPool::new(MemDisk::new(), 4);
        let paged = persist(&tree, &mut pool).unwrap();
        let mut disk = pool.into_disk().unwrap();
        // Flip one bit of the root's first rectangle on disk.
        let mut page = [0u8; PAGE_SIZE];
        disk.read(paged.root(), &mut page).unwrap();
        page[PAGE_HEADER + 5] ^= 0x10;
        disk.write(paged.root(), &page).unwrap();
        let mut pool = BufferPool::new(disk, 4);
        match paged.search(&mut pool, &Rect::new([0.0], [100.0])) {
            Err(StorageError::Corrupt { page, .. }) => assert_eq!(page, Some(paged.root())),
            other => panic!("expected a checksum mismatch, got {:?}", other),
        }
    }
}
