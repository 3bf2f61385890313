//! CRC-32 (IEEE 802.3 polynomial), table-driven, sixteen bytes a step.
//!
//! The workspace vendors no checksum crate, and the WAL needs exactly one
//! well-understood integrity check: every frame carries the CRC of its
//! payload, so a torn or bit-flipped tail is detected (never replayed) and
//! recovery stops at the last intact committed prefix. The federation wire
//! (`asbestos-cluster`) frames with the same function.
//!
//! The loop is *slicing-by-16*: `TABLES[k][b]` is the CRC of byte `b`
//! followed by `k` zero bytes, so sixteen input bytes fold into the
//! running value with sixteen independent lookups instead of sixteen
//! dependent ones. Same polynomial, same value for every input as the
//! byte-at-a-time loop it replaced (kept under `#[cfg(test)]` as the
//! reference) — every WAL on disk and every frame on the wire stays valid.

/// Reflected polynomial for CRC-32/IEEE.
const POLY: u32 = 0xEDB8_8320;

/// The lookup tables, built at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k]` advances `TABLES[k - 1]` by one more
/// zero byte.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE, as used by zip/png/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The streaming form of [`crc32`]: `crc32_extend(crc32(a), b)` is the
/// CRC-32 of `a` followed by `b`, so a checksum can cover bytes that are
/// not contiguous (the federation wire seeds each frame's CRC with the
/// frame's index on its link).
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        // The running value folds into the first four bytes; byte `i` of
        // the block is followed by `15 - i` more.
        let head = (crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        crc = TABLES[15][head[0] as usize]
            ^ TABLES[14][head[1] as usize]
            ^ TABLES[13][head[2] as usize]
            ^ TABLES[12][head[3] as usize];
        for (i, &byte) in b[4..].iter().enumerate() {
            crc ^= TABLES[11 - i][byte as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32` was before slicing: the
    /// reference every input must still agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn extending_equals_checksumming_the_concatenation() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_extend(crc32(a), b), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let good = crc32(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), good, "flip at byte {i} bit {bit}");
            }
        }
    }

    /// Every split of the input between the sixteen-byte steps and the
    /// byte-wise tail, at every alignment of the slice within its buffer.
    #[test]
    fn agrees_with_the_bytewise_reference_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..16 + 513u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=513 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn agrees_with_the_bytewise_reference_on_random_vectors(
            bytes in prop::collection::vec(any::<u8>(), 0..65_537),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    /// One WAL record frame (`len | crc | kind | body`) exactly as the
    /// byte-at-a-time implementation wrote it: what is on disk must still
    /// verify, so compatibility is pinned by old bytes, not by `crc32`
    /// agreeing with itself.
    #[test]
    fn a_wal_record_written_before_slicing_still_verifies() {
        let frame = unhex(
            "3600000007403a7f01494e5345525420494e544f2070726f66696c652056414c\
             554553202827616c696365272c2027636f6c6f72272c2027626c75652729",
        );
        let frames = crate::wal::scan_frames(&frame);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].kind, crate::wal::FrameKind::Record);
        assert_eq!(
            frames[0].body,
            b"INSERT INTO profile VALUES ('alice', 'color', 'blue')"
        );
        assert_eq!(frames[0].end, frame.len());
        assert_eq!(
            crate::wal::encode_frame(crate::wal::FrameKind::Record, &frames[0].body),
            frame
        );
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }
}
