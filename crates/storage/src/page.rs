//! Fixed-size pages: the sealed page header, and a slotted record layout.
//!
//! Every page starts with an 8-byte header whose bytes 4..8 hold the page
//! checksum (u32 LE): CRC-32 (IEEE) of the page with these four bytes
//! treated as zero. The stored value 0 means "unsealed" (a computed CRC of
//! 0 is stored as 0xFFFF_FFFF to stay distinct), so an all-zeros page, a
//! freshly `init`ed one, or a slotted page written before pages were sealed
//! verifies trivially. The [`BufferPool`](crate::BufferPool) seals every page it
//! writes back and verifies every page it reads.
//!
//! Layout of a slotted page (offsets in bytes):
//!
//! ```text
//! 0..2    number of slots (u16)
//! 2..4    offset of the start of the record area (u16, grows downward)
//! 4..8    page checksum
//! 8..     slot directory: per slot, record offset (u16) and length (u16);
//!         an offset below 8 (inside the header, 0 included) cannot come
//!         from `insert` and reads as absent
//! ...     free space
//! ...     records, packed against the end of the page
//! ```

use crate::{Result, StorageError};

/// Size of every page in bytes. Chosen to match a common filesystem block.
pub const PAGE_SIZE: usize = 4096;

/// Bytes at the start of every page reserved for its header (the slotted
/// layout's counters and the checksum).
pub(crate) const PAGE_HEADER: usize = 8;

const SLOT: usize = 4;

/// The checksum field within the page header.
const CRC: std::ops::Range<usize> = 4..8;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `data` with the checksum field treated as zero.
fn page_crc(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in [&data[..CRC.start], &[0u8; 4][..], &data[CRC.end..]] {
        for &byte in part {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
        }
    }
    !crc
}

/// The stored encoding of a computed CRC: `0` is reserved for "unsealed",
/// so a computed CRC of 0 is stored as `0xFFFF_FFFF`.
fn encode_crc(crc: u32) -> u32 {
    if crc == 0 {
        0xFFFF_FFFF
    } else {
        crc
    }
}

/// Stamps the page's checksum field so [`verify_checksum`] can detect torn
/// writes and bit flips.
pub(crate) fn seal(data: &mut [u8]) {
    let crc = encode_crc(page_crc(data));
    data[CRC].copy_from_slice(&crc.to_le_bytes());
}

/// Whether the page's stored checksum matches its contents. An unsealed
/// page (stored checksum 0) verifies trivially.
pub(crate) fn verify_checksum(data: &[u8]) -> bool {
    let field = &data[CRC];
    let stored = u32::from_le_bytes([field[0], field[1], field[2], field[3]]);
    stored == 0 || stored == encode_crc(page_crc(data))
}

/// Identifier of a page within a disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

/// A view over a page's bytes interpreting the slotted layout.
pub struct SlottedPage<'a> {
    data: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Wraps page bytes. The caller must have initialized the page with
    /// [`SlottedPage::init`] at some point (all-zeros is a valid empty page
    /// except for the record-area pointer, which `init` sets).
    pub fn new(data: &'a mut [u8]) -> SlottedPage<'a> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        SlottedPage { data }
    }

    /// Formats the page as empty (and unsealed).
    pub fn init(data: &mut [u8]) {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        data[0..2].copy_from_slice(&0u16.to_le_bytes());
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        data[CRC].copy_from_slice(&0u32.to_le_bytes());
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots. A corrupt count is capped at what the page can
    /// hold, so the directory is never read past its end.
    pub fn slot_count(&self) -> usize {
        (self.read_u16(0) as usize).min((PAGE_SIZE - PAGE_HEADER) / SLOT)
    }

    fn record_start(&self) -> usize {
        let v = self.read_u16(2) as usize;
        if v == 0 {
            PAGE_SIZE // uninitialized all-zeros page behaves as empty
        } else {
            v
        }
    }

    /// Free bytes available for one more record (including its slot entry).
    pub fn free_space(&self) -> usize {
        let dir_end = PAGE_HEADER + self.slot_count() * SLOT;
        self.record_start().saturating_sub(dir_end)
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// The largest record insertable into an empty page.
    pub const fn max_record() -> usize {
        PAGE_SIZE - PAGE_HEADER - SLOT
    }

    /// Inserts a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if record.len() > Self::max_record() {
            return Err(StorageError::RecordTooLarge(record.len()));
        }
        if !self.fits(record.len()) {
            return Err(StorageError::corrupt("insert into full page"));
        }
        let slot = self.slot_count();
        let new_start = self.record_start() - record.len();
        self.data[new_start..new_start + record.len()].copy_from_slice(record);
        self.write_u16(2, new_start as u16);
        let dir = PAGE_HEADER + slot * SLOT;
        self.write_u16(dir, new_start as u16);
        self.write_u16(dir + 2, record.len() as u16);
        self.write_u16(0, (slot + 1) as u16);
        Ok(slot as u16)
    }

    /// Reads the record in `slot`, or `None` if the slot is out of range or
    /// its directory entry does not point at a record.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot as usize >= self.slot_count() {
            return None;
        }
        let dir = PAGE_HEADER + slot as usize * SLOT;
        let off = self.read_u16(dir) as usize;
        let len = self.read_u16(dir + 2) as usize;
        // A corrupt directory entry must not panic: treat out-of-range
        // records (overrunning the page or reaching into the header) as
        // absent; the buffer pool's seal check catches the corruption
        // before this.
        if off < PAGE_HEADER {
            return None;
        }
        self.data.get(off..off + len)
    }

    /// Iterates over `(slot, record)` pairs of the readable records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count() as u16).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_page() -> Vec<u8> {
        let mut data = vec![0u8; PAGE_SIZE];
        SlottedPage::init(&mut data);
        data
    }

    #[test]
    fn insert_and_get() {
        let mut data = empty_page();
        let mut p = SlottedPage::new(&mut data);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.get(99), None);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_up_exactly() {
        let mut data = empty_page();
        let mut p = SlottedPage::new(&mut data);
        let rec = vec![7u8; 100];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        // 4096 - 8 header = 4088; each record costs 104 → 39 records.
        assert_eq!(n, (PAGE_SIZE - PAGE_HEADER) / (rec.len() + SLOT));
        assert!(p.insert(&rec).is_err());
        // All still readable.
        assert_eq!(p.iter().count(), n);
        assert!(p.iter().all(|(_, r)| r == &rec[..]));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut data = empty_page();
        let mut p = SlottedPage::new(&mut data);
        let too_big = vec![0u8; SlottedPage::max_record() + 1];
        assert!(matches!(p.insert(&too_big), Err(StorageError::RecordTooLarge(_))));
        let just_fits = vec![1u8; SlottedPage::max_record()];
        let s = p.insert(&just_fits).unwrap();
        assert_eq!(p.get(s).unwrap().len(), SlottedPage::max_record());
    }

    #[test]
    fn zeroed_page_is_valid_empty() {
        let mut data = vec![0u8; PAGE_SIZE];
        let p = SlottedPage::new(&mut data);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.iter().count(), 0);
        assert!(p.fits(100));
    }

    #[test]
    fn empty_record_ok() {
        let mut data = empty_page();
        let mut p = SlottedPage::new(&mut data);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s), Some(&b""[..]));
    }

    #[test]
    fn checksum_seal_verify_and_tamper() {
        let mut data = empty_page();
        SlottedPage::new(&mut data).insert(b"payload").unwrap();
        // Unsealed pages verify trivially.
        assert!(verify_checksum(&data));
        seal(&mut data);
        assert!(verify_checksum(&data));
        // Any single-bit flip outside the checksum field is detected.
        data[PAGE_SIZE - 1] ^= 0x40;
        assert!(!verify_checksum(&data));
        data[PAGE_SIZE - 1] ^= 0x40;
        assert!(verify_checksum(&data));
        // A flipped checksum byte is detected too.
        data[5] ^= 0x01;
        assert!(!verify_checksum(&data));
    }

    #[test]
    fn checksum_detects_torn_tail() {
        let mut before = empty_page();
        SlottedPage::new(&mut before).insert(&[1u8; 2000]).unwrap();
        seal(&mut before);
        let mut after = before.clone();
        SlottedPage::new(&mut after).insert(&[2u8; 1500]).unwrap();
        seal(&mut after);
        // Torn write: new header/prefix, stale tail.
        let mut torn = after.clone();
        torn[1024..].copy_from_slice(&before[1024..]);
        assert!(!verify_checksum(&torn));
    }

    #[test]
    fn checksum_is_ieee_crc32_of_the_page_with_a_zeroed_field() {
        // Pins the on-disk format: zlib.crc32 of the same bytes with
        // 4..8 zeroed gives 0x484cce74, whatever the field holds.
        let mut data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        assert_eq!(page_crc(&data), 0x484c_ce74);
        seal(&mut data);
        assert_eq!(&data[CRC], &0x484c_ce74u32.to_le_bytes());
    }

    #[test]
    fn all_zero_page_verifies() {
        let data = vec![0u8; PAGE_SIZE];
        assert!(verify_checksum(&data));
    }

    #[test]
    fn corrupt_directory_reads_as_absent() {
        let mut data = empty_page();
        let mut p = SlottedPage::new(&mut data);
        let s = p.insert(b"victim").unwrap();
        // Point the slot past the end of the page.
        let dir = PAGE_HEADER + s as usize * SLOT;
        data[dir..dir + 2].copy_from_slice(&((PAGE_SIZE - 2) as u16).to_le_bytes());
        data[dir + 2..dir + 4].copy_from_slice(&100u16.to_le_bytes());
        let p = SlottedPage::new(&mut data);
        assert_eq!(p.get(s), None, "overrunning record must not panic");
        // Point it into the header.
        let mut data = empty_page();
        let mut p = SlottedPage::new(&mut data);
        let s = p.insert(b"victim").unwrap();
        let dir = PAGE_HEADER + s as usize * SLOT;
        data[dir..dir + 2].copy_from_slice(&2u16.to_le_bytes());
        let p = SlottedPage::new(&mut data);
        assert_eq!(p.get(s), None, "header-pointing record must not panic");
        // Offset 0, length kept.
        data[dir..dir + 2].copy_from_slice(&0u16.to_le_bytes());
        let p = SlottedPage::new(&mut data);
        assert_eq!(p.get(s), None, "an offset-0 entry reads as absent");
        assert_eq!(p.iter().count(), 0);
        // A slot count larger than the page can hold.
        data[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        let p = SlottedPage::new(&mut data);
        assert_eq!(p.get(u16::MAX - 1), None, "a slot past the page must not panic");
        assert!(p.iter().count() <= (PAGE_SIZE - PAGE_HEADER) / SLOT);
    }
}
