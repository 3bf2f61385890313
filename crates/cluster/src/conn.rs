//! A framed, nonblocking connection between a kernel and the switch.
//!
//! [`FrameConn`] wraps a nonblocking `UnixStream` with the length-prefixed
//! CRC framing of [`crate::wire`]: `send` serializes into an outbound
//! buffer, `flush` pushes as much of it as the socket will take, and
//! `pump` drains the socket and returns every complete frame, decoded.
//! Partial reads and partial writes are both normal — the cluster's run
//! loop keeps calling until no side makes progress — so nothing here ever
//! blocks and nothing is lost when a buffer fills mid-frame.
//!
//! The switch uses the same buffers undecoded: it borrows the inbound
//! bytes (`take_inbound` / `restore_inbound`), checks each frame once, and
//! queues the `Forward`s among them on another connection as the bytes
//! they arrived as (`send_frame`) — see [`crate::switch`].

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

/// One end of a kernel ↔ switch link.
pub struct FrameConn {
    stream: UnixStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written to the socket.
    flushed: usize,
    /// Peer performed an orderly close (EOF observed).
    closed: bool,
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
            closed: false,
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

    /// Reads everything available and returns the complete frames.
    ///
    /// Wire corruption (bad magic, CRC failure, malformed body) surfaces
    /// as `InvalidData`: framing errors are not recoverable mid-stream.
    pub fn pump(&mut self) -> io::Result<Vec<WireMsg>> {
        self.fill()?;
        let mut msgs = Vec::new();
        let mut used = 0;
        while let Some((msg, n)) = decode_frame(&self.inbuf[used..])? {
            msgs.push(msg);
            used += n;
            self.stats.frames_in += 1;
        }
        self.inbuf.drain(..used);
        Ok(msgs)
    }

    /// Drains the socket into the inbound buffer.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(());
                }
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

    /// [`pump`]'s raw form, for the switch: reads everything available
    /// and lends the inbound bytes out *by value*, so the caller can walk
    /// the frames in them while appending to any connection's outbound
    /// buffer — this one's included. Pair with [`restore_inbound`].
    ///
    /// [`pump`]: FrameConn::pump
    /// [`restore_inbound`]: FrameConn::restore_inbound
    pub(crate) fn take_inbound(&mut self) -> io::Result<Vec<u8>> {
        self.fill()?;
        Ok(std::mem::take(&mut self.inbuf))
    }

    /// Takes back what [`take_inbound`] lent, less the `used` bytes of the
    /// `frames` complete frames the caller consumed from its front.
    ///
    /// [`take_inbound`]: FrameConn::take_inbound
    pub(crate) fn restore_inbound(&mut self, mut inbound: Vec<u8>, used: usize, frames: u64) {
        inbound.drain(..used);
        self.inbuf = inbound;
        self.stats.frames_in += frames;
    }

    /// Queues one complete frame — header, CRC and body as some peer
    /// wrote them and [`check_frame`] accepted them — verbatim.
    ///
    /// [`check_frame`]: crate::wire::check_frame
    pub(crate) fn send_frame(&mut self, frame: &[u8]) {
        self.outbuf.extend_from_slice(frame);
        self.stats.frames_out += 1;
    }

    /// Whether the peer has closed its end.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether buffered output is still waiting for the socket.
    pub fn has_pending_output(&self) -> bool {
        self.flushed < self.outbuf.len()
    }

    /// This connection's traffic counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbestos_labels::Handle;

    #[test]
    fn send_pump_roundtrip_over_a_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut tx = FrameConn::new(a).unwrap();
        let mut rx = FrameConn::new(b).unwrap();
        for i in 0..100u64 {
            tx.send(&WireMsg::Register {
                port: Handle::from_raw(i),
            });
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
        assert_eq!(
            got[99],
            WireMsg::Register {
                port: Handle::from_raw(99)
            }
        );
        assert_eq!(tx.stats().frames_out, 100);
        assert_eq!(rx.stats().frames_in, 100);
        assert_eq!(tx.stats().bytes_out, rx.stats().bytes_in);
    }
}
