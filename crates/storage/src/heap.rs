//! Heap files: unordered collections of variable-length records.
//!
//! A heap file is a chain-free bag of pages owned by one relation; the
//! file tracks its page list, appends records into the last page with room
//! (first-fit on the tail is enough for an append-only constraint store),
//! and scans pages in order. Records are addressed by [`Rid`].

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::page::{PageId, SlottedPage};
use crate::{Result, StorageError};

/// A record identifier: page plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: u16,
}

/// A heap file over pages drawn from a shared buffer pool.
///
/// The page list is kept in memory; a full system would persist it in a
/// catalog page, which is orthogonal to everything measured here.
pub struct HeapFile {
    pages: Vec<PageId>,
}

impl HeapFile {
    /// An empty heap file.
    pub fn create() -> HeapFile {
        HeapFile { pages: Vec::new() }
    }

    /// Re-attaches to an existing page list (e.g. read from a catalog).
    pub fn from_pages(pages: Vec<PageId>) -> HeapFile {
        HeapFile { pages }
    }

    /// The pages owned by this file, in insertion order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Appends a record, allocating a page when needed.
    pub fn insert<D: DiskManager>(
        &mut self,
        pool: &mut BufferPool<D>,
        record: &[u8],
    ) -> Result<Rid> {
        if record.len() > SlottedPage::max_record() {
            return Err(StorageError::RecordTooLarge(record.len()));
        }
        if let Some(&last) = self.pages.last() {
            let fits = pool.with_page(last, |data| {
                let mut buf = data.to_vec();
                SlottedPage::new(&mut buf).fits(record.len())
            })?;
            if fits {
                let slot = pool
                    .with_page_mut(last, |data| SlottedPage::new(data).insert(record))?
                    .map_err(|e| e.at_page(last))?;
                return Ok(Rid { page: last, slot });
            }
        }
        let page = pool.allocate()?;
        pool.with_page_mut(page, |data| {
            SlottedPage::init(data);
        })?;
        let slot = pool
            .with_page_mut(page, |data| SlottedPage::new(data).insert(record))?
            .map_err(|e| e.at_page(page))?;
        self.pages.push(page);
        Ok(Rid { page, slot })
    }

    /// Reads a record by id.
    pub fn get<D: DiskManager>(&self, pool: &mut BufferPool<D>, rid: Rid) -> Result<Vec<u8>> {
        if !self.pages.contains(&rid.page) {
            return Err(StorageError::BadRid(rid));
        }
        pool.with_page(rid.page, |data| {
            let mut buf = data.to_vec();
            let page = SlottedPage::new(&mut buf);
            page.get(rid.slot).map(|r| r.to_vec())
        })?
        .ok_or(StorageError::BadRid(rid))
    }

    /// Scans every record into a vector of `(rid, bytes)`.
    ///
    /// Returning materialized records keeps the borrow story simple; the
    /// relations measured in the experiments are scanned page-at-a-time
    /// through the pool, so access counting is faithful either way.
    pub fn scan<D: DiskManager>(&self, pool: &mut BufferPool<D>) -> Result<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::new();
        for &pid in &self.pages {
            pool.with_page(pid, |data| {
                let mut buf = data.to_vec();
                let page = SlottedPage::new(&mut buf);
                for (slot, rec) in page.iter() {
                    out.push((Rid { page: pid, slot }, rec.to_vec()));
                }
            })?;
        }
        Ok(out)
    }

    /// Number of records (scans the file).
    pub fn len<D: DiskManager>(&self, pool: &mut BufferPool<D>) -> Result<usize> {
        Ok(self.scan(pool)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool() -> BufferPool<MemDisk> {
        BufferPool::new(MemDisk::new(), 8)
    }

    #[test]
    fn insert_get_scan() {
        let mut pool = pool();
        let mut heap = HeapFile::create();
        let r1 = heap.insert(&mut pool, b"alpha").unwrap();
        let r2 = heap.insert(&mut pool, b"beta").unwrap();
        assert_eq!(heap.get(&mut pool, r1).unwrap(), b"alpha");
        assert_eq!(heap.get(&mut pool, r2).unwrap(), b"beta");
        let all = heap.scan(&mut pool).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, b"alpha");
    }

    #[test]
    fn spills_to_new_pages() {
        let mut pool = pool();
        let mut heap = HeapFile::create();
        let rec = vec![9u8; 1000];
        for _ in 0..10 {
            heap.insert(&mut pool, &rec).unwrap();
        }
        assert!(heap.pages().len() >= 3, "1000-byte records, 4 per page");
        assert_eq!(heap.len(&mut pool).unwrap(), 10);
    }

    #[test]
    fn bad_rid_rejected() {
        let mut pool = pool();
        let mut heap = HeapFile::create();
        heap.insert(&mut pool, b"x").unwrap();
        let bogus = Rid { page: PageId(999), slot: 0 };
        assert!(heap.get(&mut pool, bogus).is_err());
        let bad_slot = Rid { page: heap.pages()[0], slot: 42 };
        assert!(heap.get(&mut pool, bad_slot).is_err());
    }

    #[test]
    fn survives_tiny_pool() {
        // Pool smaller than the file: every page fetch may evict.
        let mut pool = BufferPool::new(MemDisk::new(), 1);
        let mut heap = HeapFile::create();
        let rec = vec![1u8; 1500];
        let mut rids = Vec::new();
        for i in 0..6 {
            let mut r = rec.clone();
            r[0] = i as u8;
            rids.push(heap.insert(&mut pool, &r).unwrap());
        }
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(heap.get(&mut pool, *rid).unwrap()[0], i as u8);
        }
    }
}
