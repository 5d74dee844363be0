//! The block/offset file layout: fixed-size pages behind a versioned,
//! checksummed header.
//!
//! ```text
//! offset 0:  #smartcrawl-pages v2\n  (magic, 21 bytes)
//!            u32 page_size (LE)
//!            u64 num_pages (LE)
//!            u64 checksum over the 33 bytes above
//!            zero padding to byte 64
//! offset 64: page 0, page 1, …  (each `page_size` bytes)
//! ```
//!
//! Each page is `[u64 checksum][u32 payload_len][payload]` zero-padded to
//! `page_size`; the checksum ([`checksum`]) covers everything after
//! itself — the length field, the payload and the padding — so a change
//! confined to one 8-byte word of the page, the length field included,
//! is always caught. The header is written *last* (by
//! [`PagedWriter::finish`], which seeks back over the placeholder), so a
//! writer that died mid-build leaves a file that fails header validation
//! instead of one that silently reads short — the single-writer →
//! multi-reader discipline: a file is immutable and complete the moment
//! any [`PagedReader`] can open it. Files of format v1 (byte-serial
//! FNV-1a checksums) fail [`PagedReader::open`] on their magic.
//!
//! This module is the only place in the crate that creates or writes
//! files (the `io-hygiene` lint rule enforces that); every validation
//! failure is a clean [`StoreError::Corrupt`], never a panic.

use crate::format::{checksum, invalid_data};
use crate::{Result, StoreError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Versioned magic line opening every paged file.
pub const MAGIC: &[u8] = b"#smartcrawl-pages v2\n";
/// Bytes reserved for the file header (magic + sizes + checksum + pad).
pub const HEADER_SPAN: usize = 64;
/// Per-page header: `u64` page checksum + `u32` payload length.
pub const PAGE_HEADER_LEN: usize = 12;
/// Bytes of the page checksum slot; the checksum covers the page after it.
const PAGE_SUM_LEN: usize = 8;
/// Smallest page size that leaves room for a header and some payload.
pub const MIN_PAGE_SIZE: usize = 32;
/// Upper bound on accepted page sizes (a corrupt header must not make a
/// reader allocate gigabytes).
pub const MAX_PAGE_SIZE: usize = 1 << 24;

fn le_u32(buf: &[u8], off: usize) -> Option<u32> {
    buf.get(off..off + 4)?
        .try_into()
        .ok()
        .map(u32::from_le_bytes)
}

fn le_u64(buf: &[u8], off: usize) -> Option<u64> {
    buf.get(off..off + 8)?
        .try_into()
        .ok()
        .map(u64::from_le_bytes)
}

fn header_bytes(page_size: usize, num_pages: u64) -> Vec<u8> {
    let mut head = Vec::with_capacity(HEADER_SPAN);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&(page_size as u32).to_le_bytes());
    head.extend_from_slice(&num_pages.to_le_bytes());
    let sum = checksum(&head);
    head.extend_from_slice(&sum.to_le_bytes());
    head.resize(HEADER_SPAN, 0);
    head
}

/// Single writer of a paged file. Pages are appended in order; the
/// validating header only lands when [`finish`](Self::finish) runs.
#[derive(Debug)]
pub struct PagedWriter {
    file: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    page_size: usize,
    num_pages: u64,
    /// Reused per-page staging buffer (header + payload + padding).
    staging: Vec<u8>,
}

impl PagedWriter {
    /// Creates (truncating) `path` and reserves the header span.
    pub fn create(path: &Path, page_size: usize) -> Result<Self> {
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StoreError::Io(invalid_data("page size out of range")));
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(&[0u8; HEADER_SPAN])?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            num_pages: 0,
            staging: Vec::with_capacity(page_size),
        })
    }

    /// Payload bytes one page can hold.
    pub fn payload_capacity(&self) -> usize {
        self.page_size - PAGE_HEADER_LEN
    }

    /// Appends one page holding `payload`; returns the page index.
    pub fn append_page(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.len() > self.payload_capacity() {
            return Err(StoreError::corrupt(
                &self.path,
                "page payload exceeds capacity",
            ));
        }
        self.staging.clear();
        self.staging.extend_from_slice(&[0u8; PAGE_SUM_LEN]);
        self.staging
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.staging.extend_from_slice(payload);
        self.staging.resize(self.page_size, 0);
        let (sum_slot, covered) = self.staging.split_at_mut(PAGE_SUM_LEN);
        sum_slot.copy_from_slice(&checksum(covered).to_le_bytes());
        self.file.write_all(&self.staging)?;
        let page = self.num_pages;
        self.num_pages += 1;
        Ok(page)
    }

    /// Flushes the pages and writes the validating header. Until this
    /// returns, the file on disk does not pass [`PagedReader::open`].
    pub fn finish(self) -> Result<()> {
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header_bytes(self.page_size, self.num_pages))?;
        file.flush()?;
        Ok(())
    }
}

/// Fills `buf` from `file` at byte `offset` (a positional read where the
/// platform has one, so readers never move a shared file cursor).
#[cfg(unix)]
fn read_at(file: &std::fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_at(mut file: &std::fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Validating reader over a finished paged file.
#[derive(Debug)]
pub struct PagedReader {
    file: std::fs::File,
    path: PathBuf,
    page_size: usize,
    num_pages: u64,
}

impl PagedReader {
    /// Opens `path`, validating magic, header checksum, and file length.
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let mut head = vec![0u8; HEADER_SPAN];
        let corrupt = |detail: &str| StoreError::corrupt(path, detail);
        file.read_exact(&mut head)
            .map_err(|_| corrupt("file shorter than its header"))?;
        if !head.starts_with(MAGIC) {
            return Err(corrupt("not a smartcrawl v2 paged file (bad magic)"));
        }
        let page_size = le_u32(&head, MAGIC.len())
            .ok_or_else(|| corrupt("header too short for page size"))?
            as usize;
        let num_pages = le_u64(&head, MAGIC.len() + 4)
            .ok_or_else(|| corrupt("header too short for page count"))?;
        let declared_sum = le_u64(&head, MAGIC.len() + 12)
            .ok_or_else(|| corrupt("header too short for checksum"))?;
        let summed = head.get(..MAGIC.len() + 12).map(checksum);
        if summed != Some(declared_sum) {
            return Err(corrupt("header checksum mismatch"));
        }
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(corrupt("header declares an impossible page size"));
        }
        let expect = num_pages
            .checked_mul(page_size as u64)
            .and_then(|body| body.checked_add(HEADER_SPAN as u64))
            .ok_or_else(|| corrupt("header declares an impossible page count"))?;
        if file.metadata()?.len() < expect {
            return Err(corrupt("file truncated below its declared page count"));
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            num_pages,
        })
    }

    /// The file this reader validates against (for error reporting).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages the header declares.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Page size the header declares.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Payload bytes one page can hold.
    pub fn payload_capacity(&self) -> usize {
        self.page_size - PAGE_HEADER_LEN
    }

    /// Reads the whole of page `page` into `frame` (resized to the page
    /// size) and verifies it there: the checksum over the length field,
    /// payload and padding, then the length. Returns the payload length;
    /// the payload is `frame[PAGE_HEADER_LEN..PAGE_HEADER_LEN + len]`.
    /// Corruption is a clean error.
    pub fn load_page(&self, page: u64, frame: &mut Vec<u8>) -> Result<usize> {
        if page >= self.num_pages {
            return Err(StoreError::corrupt(
                &self.path,
                "page index beyond page count",
            ));
        }
        frame.resize(self.page_size, 0);
        read_at(
            &self.file,
            frame,
            HEADER_SPAN as u64 + page * self.page_size as u64,
        )
        .map_err(|_| StoreError::corrupt(&self.path, "short read inside a page"))?;
        let declared_sum = le_u64(frame, 0)
            .ok_or_else(|| StoreError::corrupt(&self.path, "page header truncated"))?;
        let covered = frame
            .get(PAGE_SUM_LEN..)
            .ok_or_else(|| StoreError::corrupt(&self.path, "page header truncated"))?;
        if checksum(covered) != declared_sum {
            return Err(StoreError::corrupt(&self.path, "page checksum mismatch"));
        }
        let len = le_u32(frame, PAGE_SUM_LEN)
            .ok_or_else(|| StoreError::corrupt(&self.path, "page header truncated"))?
            as usize;
        if len > self.payload_capacity() {
            return Err(StoreError::corrupt(
                &self.path,
                "page declares impossible payload length",
            ));
        }
        Ok(len)
    }

    /// Reads page `page` into `out` (payload only), verifying its
    /// checksum and length. Corruption is a clean error.
    pub fn read_page(&self, page: u64, out: &mut Vec<u8>) -> Result<()> {
        let len = self.load_page(page, out)?;
        out.drain(..PAGE_HEADER_LEN);
        out.truncate(len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "smartcrawl_store_file_{}_{name}",
            std::process::id()
        ))
    }

    #[test]
    fn pages_round_trip() {
        let path = tmp("rt");
        let mut w = PagedWriter::create(&path, 64).unwrap();
        let cap = w.payload_capacity();
        assert_eq!(w.append_page(b"hello").unwrap(), 0);
        assert_eq!(w.append_page(&vec![0xAB; cap]).unwrap(), 1);
        assert_eq!(w.append_page(b"").unwrap(), 2);
        w.finish().unwrap();

        let r = PagedReader::open(&path).unwrap();
        assert_eq!(r.num_pages(), 3);
        assert_eq!(r.page_size(), 64);
        let mut out = Vec::new();
        r.read_page(0, &mut out).unwrap();
        assert_eq!(out, b"hello");
        r.read_page(1, &mut out).unwrap();
        assert_eq!(out, vec![0xAB; cap]);
        r.read_page(2, &mut out).unwrap();
        assert!(out.is_empty());
        assert!(r.read_page(3, &mut out).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_file_does_not_open() {
        let path = tmp("unfinished");
        let mut w = PagedWriter::create(&path, 64).unwrap();
        w.append_page(b"data").unwrap();
        // No finish(): the header is still the zero placeholder.
        drop(w);
        assert!(matches!(
            PagedReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let path = tmp("oversize");
        let mut w = PagedWriter::create(&path, 64).unwrap();
        let cap = w.payload_capacity();
        assert!(w.append_page(&vec![0u8; cap + 1]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_known_answers() {
        // Pins the v2 format: a writer and a reader of different builds
        // must agree on every page checksum.
        let ascending: Vec<u8> = (0..=255).collect();
        for (input, expect) in [
            (&b""[..], 0xce1c_b5d1_b088_52e2u64),
            (&b"a"[..], 0x88ff_26fc_02a8_8901),
            (&b"#smartcrawl-pages v2"[..], 0xe887_be58_d17d_8968),
            (&ascending[..], 0x959e_b1ee_c35b_cf10),
        ] {
            assert_eq!(checksum(input), expect, "checksum of {input:?}");
        }
    }

    #[test]
    fn every_single_bit_and_byte_change_of_a_full_page_is_corrupt() {
        let path = tmp("strength");
        const PAGE: usize = 256;
        let mut w = PagedWriter::create(&path, PAGE).unwrap();
        let payload: Vec<u8> = (0..w.payload_capacity())
            .map(|i| (i as u8).wrapping_mul(151) ^ 0x5a)
            .collect();
        w.append_page(&payload).unwrap();
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // One reader throughout: each change below is written in place,
        // and each read_page is a fresh positional read.
        let reader = PagedReader::open(&path).unwrap();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut put = |at: usize, v: u8| {
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&[v]).unwrap();
        };
        let mut out = Vec::new();
        reader.read_page(0, &mut out).unwrap();
        assert_eq!(out, payload);

        // Every byte after the checksum slot: the length field, then the
        // payload.
        assert_eq!(pristine.len(), HEADER_SPAN + PAGE);
        for (at, &orig) in pristine.iter().enumerate().skip(HEADER_SPAN + PAGE_SUM_LEN) {
            let flips = (0..8).map(|bit| orig ^ (1 << bit));
            let others = (0..=255u8).filter(|&v| v != orig);
            for v in flips.chain(others) {
                put(at, v);
                assert!(
                    matches!(reader.read_page(0, &mut out), Err(StoreError::Corrupt { .. })),
                    "byte {at} = {v:#04x} (was {orig:#04x}) read back clean"
                );
            }
            put(at, orig);
        }
        reader.read_page(0, &mut out).unwrap();
        assert_eq!(out, payload);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_fail_open() {
        let path = tmp("v1");
        let mut w = PagedWriter::create(&path, 64).unwrap();
        w.append_page(b"data").unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..MAGIC.len()].copy_from_slice(b"#smartcrawl-pages v1\n");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PagedReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn silly_page_sizes_are_rejected() {
        let path = tmp("sizes");
        assert!(PagedWriter::create(&path, 8).is_err());
        assert!(PagedWriter::create(&path, MAX_PAGE_SIZE + 1).is_err());
        std::fs::remove_file(&path).ok();
    }
}
