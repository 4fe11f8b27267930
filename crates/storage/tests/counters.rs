//! Buffer-pool access counters under seeded fault injection.
//!
//! Pins down the observability contract of the storage layer: hits and
//! misses (logical vs. physical), retried transient I/O errors, and
//! checksum-triggered rereads are all counted — both in the pool's own
//! [`AccessStats`] and mirrored into the global `cqa-obs` registry.

use cqa_storage::MemDisk;
use cqa_storage::fault::FaultKind;
use cqa_storage::{FaultConfig, FaultyDisk};
use cqa_storage::{BufferPool, PAGE_SIZE};

#[test]
fn hits_and_misses_are_counted_globally() {
    let before = cqa_obs::snapshot();
    let mut pool = BufferPool::new(MemDisk::new(), 2);
    let a = pool.allocate().unwrap();
    let b = pool.allocate().unwrap();
    let c = pool.allocate().unwrap();
    pool.with_page(a, |_| ()).unwrap(); // miss
    pool.with_page(b, |_| ()).unwrap(); // miss
    pool.with_page(a, |_| ()).unwrap(); // hit (a now hottest)
    pool.with_page(c, |_| ()).unwrap(); // miss, evicts b
    pool.with_page(a, |_| ()).unwrap(); // hit
    let s = pool.stats();
    assert_eq!(s.logical, 5);
    assert_eq!(s.physical, 3);
    let moved = cqa_obs::snapshot().delta(&before);
    assert!(moved.counter("storage.pool.logical") >= 5);
    assert!(moved.counter("storage.pool.physical") >= 3);
}

#[test]
fn transient_io_errors_retry_and_count() {
    // A seeded fault rate low enough that 3 attempts with backoff always
    // get through on this workload, high enough to actually fire.
    let disk = FaultyDisk::new(MemDisk::new(), FaultConfig::only(7, FaultKind::IoError, 0.2));
    let before = cqa_obs::snapshot();
    let mut pool = BufferPool::new(disk, 1);
    let mut pages = Vec::new();
    for _ in 0..8 {
        pages.push(pool.allocate().unwrap());
    }
    for (i, &p) in pages.iter().enumerate() {
        pool.with_page_mut(p, |bytes| bytes[0] = i as u8).unwrap();
    }
    pool.flush().unwrap();
    pool.clear().unwrap();
    for (i, &p) in pages.iter().enumerate() {
        let v = pool.with_page(p, |bytes| bytes[0]).unwrap();
        assert_eq!(v, i as u8, "data intact despite injected faults");
    }
    let s = pool.stats();
    assert!(s.io_retries > 0, "the 20% fault rate must have fired: {:?}", s);
    assert_eq!(pool.disk().counts().io_errors, s.io_retries, "every injected error was retried");
    let moved = cqa_obs::snapshot().delta(&before);
    assert!(moved.counter("storage.pool.io_retries") >= s.io_retries);
}

#[test]
fn corrupt_rereads_heal_bit_flips_and_count() {
    // Bit flips are read-side: a checksum mismatch evicts the bytes and
    // rereads once, which heals a transient flip.
    let disk = FaultyDisk::new(MemDisk::new(), FaultConfig::only(11, FaultKind::BitFlip, 0.3));
    let before = cqa_obs::snapshot();
    let mut pool = BufferPool::new(disk, 1);
    let mut pages = Vec::new();
    for _ in 0..12 {
        pages.push(pool.allocate().unwrap());
    }
    for &p in &pages {
        pool.with_page_mut(p, |bytes| {
            // Leave a recognizable payload after the slotted-page header.
            bytes[PAGE_SIZE - 1] = 0xAB;
        })
        .unwrap();
    }
    pool.flush().unwrap();
    pool.clear().unwrap();
    let mut healed = 0u64;
    for &p in &pages {
        match pool.with_page(p, |bytes| bytes[PAGE_SIZE - 1]) {
            Ok(v) => assert_eq!(v, 0xAB),
            // Back-to-back flips on the same page exhaust the one reread;
            // that is a typed error, not silent corruption.
            Err(e) => assert!(e.to_string().contains("checksum"), "{}", e),
        }
        healed = pool.stats().corrupt_rereads;
    }
    assert!(healed > 0, "the 30% flip rate must have triggered rereads");
    let moved = cqa_obs::snapshot().delta(&before);
    assert!(moved.counter("storage.pool.corrupt_rereads") >= healed);
}
