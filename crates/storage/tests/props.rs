//! Property-based tests for the storage layer: codec framing, slotted
//! pages, heap files, and buffer-pool transparency.

use cqa_storage::codec::{Reader, Writer};
use cqa_storage::{BufferPool, HeapFile, MemDisk, SlottedPage, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of codec writes reads back exactly.
    #[test]
    fn codec_roundtrip(values in prop::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(V::U8),
            any::<u32>().prop_map(V::U32),
            any::<u64>().prop_map(V::U64),
            any::<i64>().prop_map(V::I64),
            any::<f64>().prop_filter("no NaN for Eq", |f| !f.is_nan()).prop_map(V::F64),
            "[a-zA-Z0-9 äöü]{0,40}".prop_map(V::Str),
            prop::collection::vec(any::<u8>(), 0..64).prop_map(V::Bytes),
        ],
        0..24,
    )) {
        let mut w = Writer::new();
        for v in &values {
            match v {
                V::U8(x) => { w.u8(*x); }
                V::U32(x) => { w.u32(*x); }
                V::U64(x) => { w.u64(*x); }
                V::I64(x) => { w.i64(*x); }
                V::F64(x) => { w.f64(*x); }
                V::Str(s) => { w.str(s); }
                V::Bytes(b) => { w.bytes(b); }
            }
        }
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        for v in &values {
            match v {
                V::U8(x) => prop_assert_eq!(r.u8().unwrap(), *x),
                V::U32(x) => prop_assert_eq!(r.u32().unwrap(), *x),
                V::U64(x) => prop_assert_eq!(r.u64().unwrap(), *x),
                V::I64(x) => prop_assert_eq!(r.i64().unwrap(), *x),
                V::F64(x) => prop_assert_eq!(r.f64().unwrap(), *x),
                V::Str(s) => prop_assert_eq!(r.str().unwrap(), s.as_str()),
                V::Bytes(b) => prop_assert_eq!(r.bytes().unwrap(), b.as_slice()),
            }
        }
        prop_assert!(r.at_end());
    }

    /// Truncating an encoded buffer never panics, and every value that
    /// does read back equals what was written (errors are the only other
    /// outcome — no silent corruption).
    #[test]
    fn codec_truncation_safe(text in "[a-z]{0,20}", cut in any::<prop::sample::Index>()) {
        let mut w = Writer::new();
        w.u64(7).str(&text).u32(9);
        let buf = w.finish();
        let cut = cut.index(buf.len() + 1).min(buf.len());
        let mut r = Reader::new(&buf[..cut]);
        match r.u64() {
            Err(_) => return Ok(()),
            Ok(v) => prop_assert_eq!(v, 7),
        }
        match r.str() {
            Err(_) => return Ok(()),
            Ok(s) => prop_assert_eq!(s, text.as_str()),
        }
        match r.u32() {
            Err(_) => return Ok(()),
            Ok(v) => {
                prop_assert_eq!(v, 9);
                prop_assert!(r.at_end());
                prop_assert_eq!(cut, buf.len());
            }
        }
    }

    /// Slotted page: a run of inserts matches a shadow list, slot for slot.
    #[test]
    fn slotted_page_vs_shadow(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..200),
        0..40,
    )) {
        let mut data = vec![0u8; PAGE_SIZE];
        SlottedPage::init(&mut data);
        let mut page = SlottedPage::new(&mut data);
        let mut shadow: Vec<Vec<u8>> = Vec::new();
        for rec in records {
            if page.fits(rec.len()) {
                let slot = page.insert(&rec).unwrap();
                prop_assert_eq!(slot as usize, shadow.len());
                shadow.push(rec);
            }
        }
        for (i, want) in shadow.iter().enumerate() {
            prop_assert_eq!(page.get(i as u16), Some(want.as_slice()));
        }
        prop_assert_eq!(page.get(shadow.len() as u16), None);
        prop_assert_eq!(page.iter().count(), shadow.len());
    }

    /// Heap files return exactly what was inserted, regardless of pool size.
    #[test]
    fn heap_file_roundtrip(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..500),
        0..30,
    ), pool_size in 1usize..8) {
        let mut pool = BufferPool::new(MemDisk::new(), pool_size);
        let mut heap = HeapFile::create();
        let mut rids = Vec::new();
        for rec in &records {
            rids.push(heap.insert(&mut pool, rec).unwrap());
        }
        for (rid, rec) in rids.iter().zip(&records) {
            prop_assert_eq!(&heap.get(&mut pool, *rid).unwrap(), rec);
        }
        let scanned = heap.scan(&mut pool).unwrap();
        prop_assert_eq!(scanned.len(), records.len());
        for ((_, got), want) in scanned.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }
    }
}

#[derive(Debug, Clone)]
enum V {
    U8(u8),
    U32(u32),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bytes(Vec<u8>),
}
