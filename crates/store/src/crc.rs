//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes a step.
//!
//! The workspace vendors no checksum crate, and the WAL needs exactly one
//! well-understood integrity check: every frame carries the CRC of its
//! payload, so a torn or bit-flipped tail is detected (never replayed) and
//! recovery stops at the last intact committed prefix. The federation wire
//! (`asbestos-cluster`) frames with the same function.
//!
//! The loop is *slicing-by-8*: `TABLES[k][b]` is the CRC of byte `b`
//! followed by `k` zero bytes, so eight input bytes fold into the running
//! value with eight independent lookups instead of eight dependent ones.
//! Same polynomial, same value for every input as the byte-at-a-time loop
//! it replaced (kept under `#[cfg(test)]` as the reference) — every WAL on
//! disk and every frame on the wire stays valid.

/// Reflected polynomial for CRC-32/IEEE.
const POLY: u32 = 0xEDB8_8320;

/// The lookup tables, built at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k]` advances `TABLES[k - 1]` by one more
/// zero byte.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
    while k < 8 {
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
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32` was before slicing-by-8: the
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

    /// Every split of the input between the eight-byte steps and the
    /// byte-wise tail, at every alignment of the slice within its buffer.
    #[test]
    fn agrees_with_the_bytewise_reference_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..8 + 257u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=257 {
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
