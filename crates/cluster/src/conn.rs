//! A framed, nonblocking link between two kernels' gateways.
//!
//! [`FrameConn`] wraps a nonblocking `UnixStream` with the length-prefixed
//! CRC framing of [`crate::wire`]: `send` serializes into an outbound
//! buffer, `flush` pushes as much of it as the socket will take, and
//! `pump` drains the socket and returns every complete frame, decoded.
//! Partial reads and partial writes are both normal — the cluster's run
//! loop keeps calling until no side makes progress — so nothing here ever
//! blocks and nothing is lost when a buffer fills mid-frame.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;

use crate::wire::{decode_frame, encode_frame, WireMsg};

const READ_CHUNK: usize = 16 * 1024;

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
            stats: ConnStats::default(),
        })
    }

    /// Queues one message for sending (serialize only; see [`flush`]).
    ///
    /// [`flush`]: FrameConn::flush
    pub fn send(&mut self, msg: &WireMsg) {
        encode_frame(msg, &mut self.outbuf);
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
    /// the bad one stays at the front of the buffer, so this call — or the
    /// next, when frames came before it — returns `InvalidData`, and so
    /// does every call after that.
    pub fn pump(&mut self) -> io::Result<Vec<WireMsg>> {
        self.fill()?;
        let mut msgs = Vec::new();
        let mut used = 0;
        let bad = loop {
            match decode_frame(&self.inbuf[used..]) {
                Ok(Some((msg, n))) => {
                    msgs.push(msg);
                    used += n;
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        self.inbuf.drain(..used);
        self.stats.frames_in += msgs.len() as u64;
        match bad {
            Some(e) if msgs.is_empty() => Err(e.into()),
            _ => Ok(msgs),
        }
    }

    /// Drains the socket into the inbound buffer.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                // EOF: the peer closed its end; nothing more will come.
                Ok(0) => return Ok(()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.stats.bytes_in += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
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
    use asbestos_kernel::Value;

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
}
