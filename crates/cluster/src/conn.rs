//! A framed, nonblocking link between two kernels' gateways.
//!
//! [`FrameConn`] wraps a nonblocking `UnixStream` with the length-prefixed
//! CRC framing of [`crate::wire`]: `send` serializes into an outbound
//! buffer, `flush` pushes as much of it as the socket will take, and
//! `pump` drains the socket and returns every complete frame, decoded.
//! Partial reads and partial writes are both normal — the cluster's run
//! loop keeps calling until no side makes progress — so nothing here ever
//! blocks and nothing is lost when a buffer fills mid-frame.
//!
//! Each end holds one [`ChunkTable`] per direction of the link: `send`
//! encodes through the table of what the peer holds, `pump` decodes
//! through the table of what this end holds, and the peer keeps the twin
//! of each. Both ends run one replacement rule, so a label chunk crosses
//! the link once while the peer still holds it, and a receiver holds at
//! most [`SLOTS`](crate::wire::SLOTS) chunks per direction (see
//! [`crate::wire`]).

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;

use crate::wire::{ChunkTable, WireError, WireMsg};

/// Traffic counters for one connection (both directions).
#[derive(Clone, Copy, Default, Debug)]
pub struct ConnStats {
    /// Complete frames decoded off the socket.
    pub frames_in: u64,
    /// Frames serialized for sending.
    pub frames_out: u64,
    /// Bytes read off the socket.
    pub bytes_in: u64,
    /// Bytes actually written to the socket.
    pub bytes_out: u64,
}

impl std::iter::Sum for ConnStats {
    fn sum<I: Iterator<Item = ConnStats>>(iter: I) -> ConnStats {
        iter.fold(ConnStats::default(), |a, b| ConnStats {
            frames_in: a.frames_in + b.frames_in,
            frames_out: a.frames_out + b.frames_out,
            bytes_in: a.bytes_in + b.bytes_in,
            bytes_out: a.bytes_out + b.bytes_out,
        })
    }
}

/// One end of a link between two kernels.
pub struct FrameConn {
    stream: UnixStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written to the socket.
    flushed: usize,
    /// The chunks the peer holds of what this end sent.
    sent: ChunkTable,
    /// The chunks this end holds of what the peer sent.
    received: ChunkTable,
    /// The first bad frame read. It may have changed `received` part way,
    /// so nothing after it is decoded.
    broken: Option<WireError>,
    stats: ConnStats,
}

impl FrameConn {
    /// Wraps a stream, switching it to nonblocking mode.
    pub fn new(stream: UnixStream) -> io::Result<FrameConn> {
        stream.set_nonblocking(true)?;
        Ok(FrameConn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            flushed: 0,
            sent: ChunkTable::default(),
            received: ChunkTable::default(),
            broken: None,
            stats: ConnStats::default(),
        })
    }

    /// Queues one message for sending (serialize only; see [`flush`]).
    ///
    /// [`flush`]: FrameConn::flush
    pub fn send(&mut self, msg: &WireMsg) {
        self.sent.encode_frame(msg, &mut self.outbuf);
        self.stats.frames_out += 1;
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// Returns the number of bytes that moved.
    pub fn flush(&mut self) -> io::Result<usize> {
        let mut moved = 0;
        while self.flushed < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.flushed..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.flushed += n;
                    moved += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.flushed == self.outbuf.len() {
            self.outbuf.clear();
            self.flushed = 0;
        }
        self.stats.bytes_out += moved as u64;
        Ok(moved)
    }

    /// Reads everything available and returns the complete frames, in
    /// order.
    ///
    /// Wire corruption (bad magic, CRC failure, malformed body) is not
    /// recoverable mid-stream. The frames before a bad one are returned;
    /// this call — or the next, when frames came before it — returns
    /// `InvalidData`, and so does every call after that.
    pub fn pump(&mut self) -> io::Result<Vec<WireMsg>> {
        if let Some(e) = self.broken {
            return Err(e.into());
        }
        self.fill()?;
        let mut msgs = Vec::new();
        let mut used = 0;
        loop {
            match self.received.decode_frame(&self.inbuf[used..]) {
                Ok(Some((msg, n))) => {
                    msgs.push(msg);
                    used += n;
                }
                Ok(None) => break,
                Err(e) => {
                    self.broken = Some(e);
                    break;
                }
            }
        }
        self.inbuf.drain(..used);
        self.stats.frames_in += msgs.len() as u64;
        match self.broken {
            Some(e) if msgs.is_empty() => Err(e.into()),
            _ => Ok(msgs),
        }
    }

    /// Drains the socket into the inbound buffer. `read_to_end` reads
    /// straight into the buffer's spare capacity, growing it as needed,
    /// and keeps exactly what was read, so no byte is copied on the way
    /// in. It returns at EOF (the peer closed its end) or at the first
    /// error; at `WouldBlock` what was read is already in the buffer.
    fn fill(&mut self) -> io::Result<()> {
        let before = self.inbuf.len();
        let read = self.stream.read_to_end(&mut self.inbuf);
        self.stats.bytes_in += (self.inbuf.len() - before) as u64;
        match read {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(()),
        }
    }

    /// This connection's traffic counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::fixtures::RawChunk::{Define, Header};
    use crate::wire::fixtures::{frame_around, raw_forward_body, raw_label, uniform_labels};
    use crate::wire::{encode_frame, SLOTS};
    use asbestos_kernel::Value;
    use asbestos_labels::chunk::{pack, Chunk};
    use asbestos_labels::{Handle, Label, Level};

    #[test]
    fn send_pump_roundtrip_over_a_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut tx = FrameConn::new(a).unwrap();
        let mut rx = FrameConn::new(b).unwrap();
        let env = |n: u64| WireMsg::EnvSet {
            key: "n".into(),
            value: Value::U64(n),
        };
        for n in 0..100 {
            tx.send(&env(n));
        }
        let mut got = Vec::new();
        // Flush and pump until quiescent: socket buffers are finite, so a
        // single flush may not move everything.
        loop {
            let moved = tx.flush().unwrap();
            let msgs = rx.pump().unwrap();
            let n = msgs.len();
            got.extend(msgs);
            if moved == 0 && n == 0 {
                break;
            }
        }
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], env(99));
        assert_eq!(tx.stats().frames_out, 100);
        assert_eq!(rx.stats().frames_in, 100);
        assert_eq!(tx.stats().bytes_out, rx.stats().bytes_in);
    }

    /// A chunk crosses a link once. A 780-entry `E_S` (ok-demux's send
    /// label on `fed-k2`: 13 chunks) sent a second time travels as 13
    /// one-byte references — the frame is the same message with no label
    /// entries plus one byte per chunk — and the receiver allocates no
    /// chunk for it: the decoded label shares the first one's.
    #[test]
    fn a_chunk_crosses_a_link_once() {
        let (a, b) = UnixStream::pair().unwrap();
        let (mut tx, mut rx) = (FrameConn::new(a).unwrap(), FrameConn::new(b).unwrap());
        let pairs: Vec<(Handle, Level)> = (0..780)
            .map(|i| (Handle::from_raw(i * 5 + 2), Level::Star))
            .collect();
        let forward = |es: Label| WireMsg::Forward {
            port: Handle::from_raw(0x2000),
            es,
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            body: Value::Str("read-r".into()),
        };
        let msg = forward(Label::from_pairs(Level::L1, &pairs));
        let mut bare = Vec::new();
        encode_frame(&forward(Label::default_send()), &mut bare);

        let mut hop = || {
            let bytes = tx.stats().bytes_out;
            tx.send(&msg);
            tx.flush().unwrap();
            let allocs = Chunk::alloc_count();
            let mut got = rx.pump().unwrap();
            let allocs = Chunk::alloc_count() - allocs;
            assert_eq!(got, std::slice::from_ref(&msg));
            let Some(WireMsg::Forward { es, .. }) = got.pop() else {
                unreachable!("checked above")
            };
            (tx.stats().bytes_out - bytes, allocs, es)
        };
        let (first, first_allocs, first_es) = hop();
        assert_eq!(first as usize, bare.len() + 13 + 780 * 8);
        assert_eq!(first_allocs, 13);
        let (second, second_allocs, second_es) = hop();
        assert_eq!(second as usize, bare.len() + 13);
        assert_eq!(second_allocs, 0);
        assert_eq!(second_es.chunks_shared_with(&first_es), 13);
    }

    /// A link's history is checked, not assumed. On a warm link whose
    /// table is full, frame 2 defines a chunk into the slot of the oldest
    /// one and frame 3 references it there. A frame lost, repeated or
    /// reordered after frame 1 closes the link with `BadCrc` at the next
    /// frame, and every message decoded before it is the one sent. Without
    /// the frame index in the CRC, the lost and the reordered frame 2 would
    /// let frame 3 decode with the evicted chunk's entries in its `E_S`.
    #[test]
    fn a_lost_repeated_or_reordered_frame_closes_the_link() {
        let pool: Vec<Chunk> = (0..=SLOTS as u64)
            .map(|i| Chunk::from_entries(&[pack(10 * i, Level::L3)]))
            .collect();
        let forward = |picks: &[usize]| WireMsg::Forward {
            port: Handle::from_raw(0x2000),
            es: Label::from_chunks(Level::L1, picks.iter().map(|&i| pool[i].clone()).collect())
                .unwrap(),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            body: Value::Unit,
        };
        let every: Vec<usize> = (0..SLOTS).collect();
        let msgs = [
            forward(&every),
            forward(&[1]),
            forward(&[SLOTS]),
            forward(&[SLOTS]),
        ];
        let mut sender = ChunkTable::default();
        let frames: Vec<Vec<u8>> = (msgs.iter())
            .map(|msg| {
                let mut frame = Vec::new();
                sender.encode_frame(msg, &mut frame);
                frame
            })
            .collect();
        for (fault, order) in [
            ("lost", &[0, 1, 3][..]),
            ("repeated", &[0, 1, 1, 2]),
            ("reordered", &[0, 1, 3, 2]),
        ] {
            let (a, mut b) = UnixStream::pair().unwrap();
            let mut rx = FrameConn::new(a).unwrap();
            for &i in order {
                b.write_all(&frames[i]).unwrap();
            }
            let mut got = Vec::new();
            let err = loop {
                match rx.pump() {
                    Ok(msgs) if msgs.is_empty() => break None,
                    Ok(msgs) => got.extend(msgs),
                    Err(err) => break Some(err),
                }
            };
            for (k, msg) in got.iter().enumerate() {
                assert_eq!(msg, &msgs[order[k]], "{fault}: message {k} decoded wrong");
            }
            assert_eq!(got.len(), 2, "{fault}: the link closes at the next frame");
            let cause = (err.as_ref().and_then(|e| e.get_ref()))
                .and_then(|e| e.downcast_ref::<WireError>());
            assert_eq!(cause, Some(&WireError::BadCrc), "{fault}");
        }
    }

    /// A bad frame is final. This one defines a chunk in `es`, then names
    /// slot 1 from `ds` while only slot 0 is full. Read again through the
    /// table it changed, it would define into slot 1 and decode.
    #[test]
    fn a_bad_frame_is_never_read_twice() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut rx = FrameConn::new(a).unwrap();
        let mut labels = uniform_labels();
        labels[0] = raw_label(Level::L1.to_bits() as u8, &[Define(&[pack(3, Level::L3)])]);
        labels[1] = raw_label(Level::L1.to_bits() as u8, &[Header(0x80 | 1)]);
        b.write_all(&frame_around(0, &raw_forward_body(labels)))
            .unwrap();
        for _ in 0..2 {
            let err = rx.pump().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
