//! WAL frame codec and log scanning.
//!
//! Every object the store writes — the log, snapshots, the boot epoch —
//! is a sequence of *frames*:
//!
//! ```text
//! frame  := len:u32le  crc:u32le  payload
//! payload := kind:u8  body
//! ```
//!
//! `len` counts the payload bytes and `crc` is the CRC-32 of the payload,
//! so a torn append (short frame, garbage length, bit rot) is detected by
//! construction. Scanning stops at the first invalid frame: everything
//! before it is exactly the bytes that were durable and intact.

use crate::crc::crc32;

/// Frame kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// One application record (opaque bytes).
    Record,
    /// Group-commit marker: every record before it is committed.
    Commit,
    /// The persisted boot-epoch counter (u64 body).
    Epoch,
    /// A compacted snapshot (opaque application bytes).
    Snapshot,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Record => 1,
            FrameKind::Commit => 2,
            FrameKind::Epoch => 3,
            FrameKind::Snapshot => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<FrameKind> {
        match tag {
            1 => Some(FrameKind::Record),
            2 => Some(FrameKind::Commit),
            3 => Some(FrameKind::Epoch),
            4 => Some(FrameKind::Snapshot),
            _ => None,
        }
    }
}

/// Encodes one frame.
pub fn encode_frame(kind: FrameKind, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(kind.tag());
    payload.extend_from_slice(body);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// One decoded frame plus the byte offset just past it.
pub struct ScannedFrame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Frame body (payload minus the kind tag).
    pub body: Vec<u8>,
    /// Offset of the first byte after this frame.
    pub end: usize,
}

/// Decodes frames from `bytes` until the first invalid one. Returns the
/// intact frames; `bytes[frames.last().end..]` is the torn/invalid tail
/// (empty when the object ends exactly on a frame boundary).
pub fn scan_frames(bytes: &[u8]) -> Vec<ScannedFrame> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let Some(end) = pos.checked_add(8 + len) else {
            break;
        };
        if len == 0 || end > bytes.len() {
            break; // torn tail: length field overruns the object
        }
        let payload = &bytes[pos + 8..end];
        if crc32(payload) != crc {
            break; // bit rot or torn payload
        }
        let Some(kind) = FrameKind::from_tag(payload[0]) else {
            break;
        };
        frames.push(ScannedFrame {
            kind,
            body: payload[1..].to_vec(),
            end,
        });
        pos = end;
    }
    frames
}

/// Decodes a single-frame object of the expected kind (snapshots, the
/// epoch object). `None` when missing, torn, or of the wrong kind.
pub fn decode_single(bytes: &[u8], kind: FrameKind) -> Option<Vec<u8>> {
    let frames = scan_frames(bytes);
    let first = frames.into_iter().next()?;
    (first.kind == kind).then_some(first.body)
}

/// The result of scanning a WAL byte stream for its committed prefix.
#[derive(Default)]
pub struct CommittedScan {
    /// Record bodies covered by a commit marker, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset just past the last commit marker (the replay-safe
    /// prefix; anything after must be truncated before new appends).
    pub committed_len: usize,
    /// Intact records found *after* the last commit marker (discarded —
    /// they were never acknowledged).
    pub uncommitted: usize,
    /// Whether the object ended in a torn/invalid/out-of-sequence tail.
    pub torn: bool,
    /// Sequence number the *next* commit marker would carry (`None`
    /// when no marker was accepted).
    pub next_seq: Option<u64>,
}

/// Scans a log's bytes for the committed record prefix.
///
/// Every commit marker carries a sequence number. The first marker sets
/// the baseline, and each later one must be one more than the last: a
/// marker out of sequence belongs to a history the durable prefix never
/// reached, so the scan stops there.
pub fn scan_committed(bytes: &[u8]) -> CommittedScan {
    let mut out = CommittedScan::default();
    let mut staged: Vec<Vec<u8>> = Vec::new();
    let mut last_end = 0usize;
    for frame in scan_frames(bytes) {
        match frame.kind {
            FrameKind::Record => staged.push(frame.body),
            FrameKind::Commit => {
                let seq = <[u8; 8]>::try_from(frame.body.as_slice()).map(u64::from_le_bytes);
                match seq {
                    Ok(seq) if out.next_seq.is_none_or(|e| e == seq) => {
                        out.records.append(&mut staged);
                        out.committed_len = frame.end;
                        out.next_seq = Some(seq + 1);
                    }
                    // A malformed or out-of-sequence marker: the tail
                    // from here on is torn.
                    _ => break,
                }
            }
            // Foreign frame kinds inside a log mean corruption.
            FrameKind::Epoch | FrameKind::Snapshot => break,
        }
        last_end = frame.end;
    }
    out.uncommitted = staged.len();
    out.torn = last_end < bytes.len();
    out
}

/// Encodes a commit marker carrying sequence number `seq`.
pub fn encode_commit(seq: u64) -> Vec<u8> {
    encode_frame(FrameKind::Commit, &seq.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut bytes = encode_frame(FrameKind::Record, b"one");
        bytes.extend(encode_frame(FrameKind::Record, b"two"));
        bytes.extend(encode_commit(0));
        let frames = scan_frames(&bytes);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].body, b"one");
        assert_eq!(frames[1].body, b"two");
        assert_eq!(frames[2].kind, FrameKind::Commit);
        assert_eq!(frames[2].end, bytes.len());
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut bytes = encode_frame(FrameKind::Record, b"good");
        let full = encode_frame(FrameKind::Record, b"torn-away");
        bytes.extend(&full[..full.len() - 3]);
        let frames = scan_frames(&bytes);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].body, b"good");
    }

    #[test]
    fn committed_prefix_excludes_unmarked_records() {
        let mut bytes = Vec::new();
        bytes.extend(encode_frame(FrameKind::Record, b"a"));
        bytes.extend(encode_frame(FrameKind::Record, b"b"));
        bytes.extend(encode_commit(0));
        let committed_end = bytes.len();
        bytes.extend(encode_frame(FrameKind::Record, b"c"));
        let scan = scan_committed(&bytes);
        assert_eq!(scan.records, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(scan.committed_len, committed_end);
        assert_eq!(scan.uncommitted, 1);
        assert_eq!(scan.next_seq, Some(1));
        assert!(!scan.torn);
    }

    #[test]
    fn out_of_sequence_commit_stops_the_scan() {
        let mut bytes = Vec::new();
        bytes.extend(encode_frame(FrameKind::Record, b"a"));
        bytes.extend(encode_commit(4));
        let good_end = bytes.len();
        bytes.extend(encode_frame(FrameKind::Record, b"b"));
        bytes.extend(encode_commit(6)); // seq 5 is missing
        let scan = scan_committed(&bytes);
        assert_eq!(scan.records, vec![b"a".to_vec()]);
        assert_eq!(scan.committed_len, good_end);
        assert!(scan.torn);
    }

    #[test]
    fn every_truncation_yields_a_committed_prefix() {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize]; // committed_len after 0 commits
        for batch in 0..4u8 {
            for i in 0..3u8 {
                bytes.extend(encode_frame(FrameKind::Record, &[batch, i]));
            }
            bytes.extend(encode_commit(batch as u64));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan_committed(&bytes[..cut]);
            // The committed prefix is always a whole number of batches.
            assert_eq!(scan.records.len() % 3, 0, "cut at {cut}");
            assert!(boundaries.contains(&scan.committed_len), "cut at {cut}");
            // And it is the *largest* batch count whose commit fits.
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scan.records.len(), expect * 3, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_never_pass_crc() {
        let bytes = encode_frame(FrameKind::Record, b"payload-under-test");
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            let frames = scan_frames(&flipped);
            // Either the frame is rejected outright, or (flipping inside
            // the length field) it reads as torn — never a wrong payload.
            if let Some(f) = frames.first() {
                assert_eq!(f.body, b"payload-under-test", "silent corruption at {i}");
            }
        }
    }
}
