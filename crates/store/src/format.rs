//! Shared on-disk format primitives: the word-wise page checksum, LEB128
//! varints, and the escape/magic-line helpers of the workspace's
//! line-oriented text stores.
//!
//! This is the one format module: the paged binary layout ([`crate::file`])
//! builds on the checksum and varint helpers, and the query cache's text
//! persistence (`smartcrawl-cache`) re-exports the escape helpers from
//! here instead of keeping private copies — the first step toward the
//! shared cross-process store.

/// Odd multiplier of the checksum's lane step (the 64-bit golden ratio),
/// so `h ↦ h · CHECKSUM_PRIME` is a bijection mod 2⁶⁴.
const CHECKSUM_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
/// Distinct starting states of the four checksum lanes.
const LANE_SEEDS: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x8422_2325_cbf2_9ce4,
    0x2545_f491_4f6c_dd1d,
    0x6a09_e667_f3bc_c908,
];
/// Starting state of the fold that combines the lanes.
const FOLD_SEED: u64 = 0xbb67_ae85_84ca_a73b;

/// One lane step: absorbs `word` into `h`. For a fixed `word` it is a
/// bijection of `h` (xor, odd multiply and xor-shift are each
/// invertible), and for a fixed `h` a bijection of `word`.
#[inline(always)]
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(CHECKSUM_PRIME);
    h ^ (h >> 32)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    bytes.try_into().map_or(0, u64::from_le_bytes)
}

/// 64-bit checksum of `bytes`, read as little-endian `u64` words.
///
/// Word `i` is absorbed by lane `i mod 4`, so the four lanes run
/// independently and the multiplies overlap instead of queueing behind
/// each other as a byte-serial hash's do. A bijective fold then combines
/// the lanes, the zero-padded tail bytes and the length, and a bijective
/// finalizer mixes the result.
///
/// Every step is a bijection of the state it carries, so for inputs of
/// one length, two that differ only inside one aligned 8-byte word (or
/// only in the tail) always get different checksums. That covers every
/// single-bit flip and every single-byte change.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(word));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = mix(*lane, le_word(word));
    }
    let mut tail = [0u8; 8];
    for (slot, &b) in tail.iter_mut().zip(words.remainder()) {
        *slot = b;
    }
    let mut acc = FOLD_SEED;
    for lane in lanes {
        acc = mix(acc, lane);
    }
    acc = mix(acc, u64::from_le_bytes(tail));
    acc = mix(acc, bytes.len() as u64);
    // murmur3's fmix64: xor-shifts and odd multiplies, all invertible.
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xff51_afd7_ed55_8ccd);
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    acc ^ (acc >> 33)
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` at `*pos`, advancing `*pos` past it.
/// Returns `None` on truncation or a varint wider than 64 bits.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Backslash-escapes tabs, newlines, and backslashes so a cell can live
/// on one line of a tab-separated text store.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a dangling or unknown escape.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// An `InvalidData` I/O error with the given message — the rejection
/// shape every text store in the workspace uses for foreign or corrupt
/// files.
pub fn invalid_data(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_representative_values() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[], &mut pos), None);
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80], &mut pos),
            None,
            "dangling continuation bit"
        );
        // 10 continuation bytes push past 64 bits.
        let mut pos = 0;
        assert_eq!(read_varint(&[0xff; 11], &mut pos), None);
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "tab\tnl\ncr\rback\\slash", "\\t literal"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None);
        assert_eq!(unescape("dangling\\"), None);
    }

    #[test]
    fn checksum_detects_every_single_word_change() {
        // A 70-byte input: two full 32-byte blocks (8 words), no partial
        // words, 6 tail bytes — every absorption path is exercised.
        let base: Vec<u8> = (0..70u8).map(|i| i.wrapping_mul(37)).collect();
        let sum = checksum(&base);
        let mut probe = base.clone();
        for i in 0..base.len() {
            for bit in 0..8 {
                probe[i] ^= 1 << bit;
                assert_ne!(checksum(&probe), sum, "bit {bit} of byte {i}");
                probe[i] ^= 1 << bit;
            }
            for v in 0..=255u8 {
                if v != base[i] {
                    probe[i] = v;
                    assert_ne!(checksum(&probe), sum, "byte {i} = {v}");
                }
            }
            probe[i] = base[i];
        }
    }

    #[test]
    fn checksum_folds_in_the_length() {
        // Zero tails of different lengths pack to the same tail word;
        // only the folded length tells them apart.
        let sums: Vec<u64> = (0..=16).map(|n| checksum(&vec![0u8; n])).collect();
        for (i, a) in sums.iter().enumerate() {
            for b in &sums[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
