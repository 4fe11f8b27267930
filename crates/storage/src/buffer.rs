//! A buffer pool with LRU replacement and disk-access accounting.
//!
//! The §5.4 experiments report "number of disk accesses"; in this system
//! that figure is read off [`AccessStats`]. Every page fetch counts one
//! *logical* access; a fetch that misses the pool and must go to the disk
//! manager counts one *physical* access. Running an experiment with a cold
//! (or deliberately tiny) pool makes logical ≈ physical, which is the
//! configuration the paper's experiments correspond to.
//!
//! Every page is sealed (see [`crate::page`]): a write-back stamps the
//! page's CRC, and a physical read verifies it. A mismatch evicts the bytes
//! and rereads once, so a read-side bit flip heals; a mismatch that
//! persists fails with [`StorageError::Corrupt`].

use crate::disk::DiskManager;
use crate::page::{seal, verify_checksum, PageId, PAGE_SIZE};
use crate::{Result, StorageError};
use std::collections::HashMap;

/// Global observability handles for buffer-pool traffic: every pool
/// mirrors its [`AccessStats`] increments here (when metrics are on), so
/// `\metrics` sees storage behaviour across all pools in the process.
struct PoolMetrics {
    logical: &'static cqa_obs::Counter,
    physical: &'static cqa_obs::Counter,
    writebacks: &'static cqa_obs::Counter,
    io_retries: &'static cqa_obs::Counter,
    corrupt_rereads: &'static cqa_obs::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        logical: cqa_obs::counter("storage.pool.logical"),
        physical: cqa_obs::counter("storage.pool.physical"),
        writebacks: cqa_obs::counter("storage.pool.writebacks"),
        io_retries: cqa_obs::counter("storage.pool.io_retries"),
        corrupt_rereads: cqa_obs::counter("storage.pool.corrupt_rereads"),
    })
}

/// Counters of buffer-pool traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessStats {
    /// Page fetches requested (one per page touched by an operation).
    pub logical: u64,
    /// Fetches that had to read from the disk manager.
    pub physical: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Transient I/O errors retried (with backoff) before succeeding or
    /// giving up.
    pub io_retries: u64,
    /// Checksum failures answered by evicting the bytes and rereading once.
    pub corrupt_rereads: u64,
}

/// Disk reads/writes are attempted this many times in total; only
/// [`StorageError::Io`] is considered transient and retried.
const IO_ATTEMPTS: u32 = 3;

/// Exponential backoff before retry `attempt` (1-based): 1ms, 2ms, …
fn backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(1u64 << (attempt - 1).min(4))
}

/// Runs one disk read or write, retrying transient I/O errors with backoff.
fn with_retry(stats: &mut AccessStats, mut op: impl FnMut() -> Result<()>) -> Result<()> {
    let mut attempt = 1;
    loop {
        match op() {
            Err(StorageError::Io(_)) if attempt < IO_ATTEMPTS => {
                stats.io_retries += 1;
                if cqa_obs::metrics_enabled() {
                    pool_metrics().io_retries.inc();
                }
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

struct Frame {
    id: PageId,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_used: u64,
}

/// Seals a dirty frame and writes it back with retry: the one write-back
/// path, shared by [`BufferPool::flush`] and LRU eviction.
fn write_back<D: DiskManager>(
    disk: &mut D,
    stats: &mut AccessStats,
    frame: &mut Frame,
) -> Result<()> {
    seal(&mut frame.data[..]);
    with_retry(stats, || disk.write(frame.id, &frame.data[..]))?;
    frame.dirty = false;
    stats.writebacks += 1;
    if cqa_obs::metrics_enabled() {
        pool_metrics().writebacks.inc();
    }
    Ok(())
}

/// A fixed-capacity page cache over a [`DiskManager`].
pub struct BufferPool<D: DiskManager> {
    disk: D,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    capacity: usize,
    clock: u64,
    stats: AccessStats,
}

impl<D: DiskManager> BufferPool<D> {
    /// Creates a pool caching at most `capacity` pages (a capacity of 0 is
    /// clamped to 1 frame rather than panicking).
    pub fn new(disk: D, capacity: usize) -> BufferPool<D> {
        BufferPool {
            disk,
            frames: Vec::new(),
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            stats: AccessStats::default(),
        }
    }

    /// The underlying disk manager (e.g. to inspect fault-injection
    /// counters mid-run).
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Access statistics so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Resets the statistics (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    /// Allocates a fresh page on the underlying disk.
    pub fn allocate(&mut self) -> Result<PageId> {
        self.disk.allocate()
    }

    /// Number of pages on the underlying disk.
    pub fn num_pages(&self) -> u64 {
        self.disk.num_pages()
    }

    /// Runs `f` with read access to the page.
    pub fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let idx = self.fetch(id)?;
        Ok(f(&self.frames[idx].data[..]))
    }

    /// Runs `f` with write access to the page, marking it dirty.
    pub fn with_page_mut<R>(&mut self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let idx = self.fetch(id)?;
        self.frames[idx].dirty = true;
        Ok(f(&mut self.frames[idx].data[..]))
    }

    /// Writes all dirty pages back to the disk manager.
    pub fn flush(&mut self) -> Result<()> {
        for frame in self.frames.iter_mut().filter(|f| f.dirty) {
            write_back(&mut self.disk, &mut self.stats, frame)?;
        }
        Ok(())
    }

    /// Evicts everything (flushing dirty pages), leaving the cache cold.
    pub fn clear(&mut self) -> Result<()> {
        self.flush()?;
        self.frames.clear();
        self.map.clear();
        Ok(())
    }

    /// Reads `id` from disk into `data` and verifies its seal, rereading
    /// once on a mismatch.
    fn read_verified(&mut self, id: PageId, data: &mut [u8; PAGE_SIZE]) -> Result<()> {
        with_retry(&mut self.stats, || self.disk.read(id, &mut data[..]))?;
        if !verify_checksum(&data[..]) {
            self.stats.corrupt_rereads += 1;
            if cqa_obs::metrics_enabled() {
                pool_metrics().corrupt_rereads.inc();
            }
            with_retry(&mut self.stats, || self.disk.read(id, &mut data[..]))?;
            if !verify_checksum(&data[..]) {
                return Err(StorageError::corrupt_page(id, "page checksum mismatch"));
            }
        }
        Ok(())
    }

    fn fetch(&mut self, id: PageId) -> Result<usize> {
        self.clock += 1;
        self.stats.logical += 1;
        let metrics_on = cqa_obs::metrics_enabled();
        if metrics_on {
            pool_metrics().logical.inc();
        }
        if let Some(&idx) = self.map.get(&id) {
            self.frames[idx].last_used = self.clock;
            if cqa_obs::spans_enabled() {
                cqa_obs::record_span("storage.page", format!("page {}", id.0), 0, vec![
                    ("physical", 0),
                ]);
            }
            return Ok(idx);
        }
        self.stats.physical += 1;
        if metrics_on {
            pool_metrics().physical.inc();
        }
        let span_start = cqa_obs::spans_enabled().then(std::time::Instant::now);
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.read_verified(id, &mut data)?;
        if let Some(t0) = span_start {
            cqa_obs::record_span(
                "storage.page",
                format!("page {}", id.0),
                t0.elapsed().as_nanos() as u64,
                vec![("physical", 1)],
            );
        }
        let idx = if self.frames.len() < self.capacity {
            self.frames.push(Frame { id, data, dirty: false, last_used: self.clock });
            self.frames.len() - 1
        } else {
            // Evict the least recently used frame. `frames` is nonempty
            // here (len == capacity ≥ 1), so fall back to frame 0 rather
            // than carrying a panic path.
            let victim = self
                .frames
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(i, _)| i)
                .unwrap_or(0);
            if self.frames[victim].dirty {
                write_back(&mut self.disk, &mut self.stats, &mut self.frames[victim])?;
            }
            let old = &mut self.frames[victim];
            self.map.remove(&old.id);
            *old = Frame { id, data, dirty: false, last_used: self.clock };
            victim
        };
        self.map.insert(id, idx);
        Ok(idx)
    }

    /// Consumes the pool, flushing and returning the disk manager.
    pub fn into_disk(mut self) -> Result<D> {
        self.flush()?;
        Ok(self.disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    #[test]
    fn caches_hot_pages() {
        let mut pool = BufferPool::new(MemDisk::new(), 2);
        let a = pool.allocate().unwrap();
        pool.with_page(a, |_| ()).unwrap();
        pool.with_page(a, |_| ()).unwrap();
        pool.with_page(a, |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.logical, 3);
        assert_eq!(s.physical, 1);
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut pool = BufferPool::new(MemDisk::new(), 2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        let c = pool.allocate().unwrap();
        pool.with_page(a, |_| ()).unwrap(); // a
        pool.with_page(b, |_| ()).unwrap(); // a b
        pool.with_page(a, |_| ()).unwrap(); // b a (a hot)
        pool.with_page(c, |_| ()).unwrap(); // evicts b
        pool.with_page(a, |_| ()).unwrap(); // hit
        assert_eq!(pool.stats().physical, 3);
        pool.with_page(b, |_| ()).unwrap(); // miss again
        assert_eq!(pool.stats().physical, 4);
    }

    #[test]
    fn writes_survive_eviction_and_flush() {
        let mut pool = BufferPool::new(MemDisk::new(), 1);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.with_page_mut(a, |p| p[0] = 42).unwrap();
        pool.with_page(b, |_| ()).unwrap(); // evicts dirty a
        let v = pool.with_page(a, |p| p[0]).unwrap();
        assert_eq!(v, 42);
        assert!(pool.stats().writebacks >= 1);
        pool.with_page_mut(a, |p| p[1] = 7).unwrap();
        let mut disk = pool.into_disk().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read(a, &mut buf).unwrap();
        assert_eq!((buf[0], buf[1]), (42, 7));
    }

    #[test]
    fn reset_and_clear() {
        let mut pool = BufferPool::new(MemDisk::new(), 4);
        let a = pool.allocate().unwrap();
        pool.with_page(a, |_| ()).unwrap();
        pool.reset_stats();
        assert_eq!(pool.stats(), AccessStats::default());
        pool.clear().unwrap();
        pool.with_page(a, |_| ()).unwrap();
        assert_eq!(pool.stats().physical, 1, "cold after clear");
    }
}
