//! The federation switch: the hub every kernel's gateway connects to.
//!
//! The switch is the Portus-style controller of the cluster: it owns the
//! *port directory* (which kernel registered which port) and relays
//! traffic between gateways. Routing is purely `port → owning kernel`, so
//! the Figure 4 decision stays where it belongs, on the destination
//! kernel.
//!
//! **A `Forward` is relayed verbatim.** The switch owns the route, not
//! the message, and a relay's function is the identity on the bytes it
//! does not own. For each complete inbound frame it checks header and CRC
//! once ([`check_frame`]); if the body is a `Forward` it walks the body
//! with [`forward_port`] — every check the destination's decoder will
//! make (level bits, canonical label runs, lengths, UTF-8, value tags,
//! nesting depth, trailing bytes), building no `Label`, `Value` or `Vec`
//! — reads the port, and appends the frame's original bytes, header and
//! CRC included, from the sender's inbound buffer to the owner's outbound
//! buffer. It never holds a decoded `Forward`, never re-encodes one and
//! never re-checksums one. Every other message (`Hello`, `Register`,
//! `Unregister`, `EnvSet`) is decoded and handled.
//!
//! **Who pays for a bad frame.** The switch rejects exactly what
//! [`decode_frame`](crate::wire::decode_frame) rejects: a frame that fails
//! any check — CRC-valid but malformed ones included — makes
//! [`Switch::pump`] return `InvalidData` while draining the connection of
//! the kernel that *sent* it, and nothing of it reaches the destination.
//!
//! Directory updates are push-based: a `Register` from kernel `k` is
//! broadcast to every *other* gateway as `ResolveR { port, Some(k) }`,
//! so by the time any kernel could hold a handle it learned through the
//! environment or a message body, the route for it is already on the
//! wire ahead of any `Forward` (the switch handles each connection's
//! frames in arrival order whatever their kind, and gateways announce
//! ports before the frames that carry them).

use std::collections::HashMap;
use std::io;

use asbestos_labels::Handle;

use crate::conn::FrameConn;
use crate::wire::{check_frame, decode_body, forward_port, WireError, WireMsg, HEADER_LEN};

/// The cluster's directory + relay hub.
pub struct Switch {
    /// One connection per kernel, indexed by kernel id.
    conns: Vec<FrameConn>,
    directory: HashMap<Handle, u16>,
    /// `Forward`s relayed to their destination kernel.
    pub forwarded: u64,
    /// `Forward`s for ports no kernel has registered (dropped, like a
    /// send to a dead port — the sender learns nothing).
    pub dropped_unroutable: u64,
}

impl Switch {
    /// Builds the switch over one connection per kernel; index = kernel id.
    pub fn new(conns: Vec<FrameConn>) -> Switch {
        Switch {
            conns,
            directory: HashMap::new(),
            forwarded: 0,
            dropped_unroutable: 0,
        }
    }

    /// Which kernel owns `port`, per the directory.
    pub fn owner_of(&self, port: Handle) -> Option<u16> {
        self.directory.get(&port).copied()
    }

    /// Drains every connection, handles/relays its frames in arrival
    /// order, then flushes all connections. Returns progress units
    /// (frames handled + bytes flushed) — zero means fully quiescent.
    ///
    /// A frame that fails its checks — header, CRC, or any field of its
    /// body — is `InvalidData` here, on the connection that *sent* it:
    /// nothing of it reaches another kernel.
    pub fn pump(&mut self) -> io::Result<u64> {
        let mut progress = 0u64;
        for k in 0..self.conns.len() {
            let inbound = self.conns[k].take_inbound()?;
            let mut used = 0;
            let mut frames = 0;
            let result = loop {
                match self.next_frame(k as u16, &inbound[used..]) {
                    Ok(0) => break Ok(()),
                    Ok(n) => {
                        used += n;
                        frames += 1;
                    }
                    Err(e) => break Err(e),
                }
            };
            // The bad frame stays at the front: the connection stays dead.
            self.conns[k].restore_inbound(inbound, used, frames);
            result?;
            progress += frames;
        }
        for conn in &mut self.conns {
            progress += conn.flush()? as u64;
        }
        Ok(progress)
    }

    /// Handles the frame at the front of `buf`, which kernel `from` sent;
    /// returns its length, or 0 when `buf` holds no complete frame yet.
    ///
    /// The frame's bytes are checksummed once. A `Forward` is then walked
    /// — every field checked as the destination's decoder will check it,
    /// nothing built — and relayed as the bytes it arrived as, header and
    /// CRC included: the switch owns the route, not the message.
    fn next_frame(&mut self, from: u16, buf: &[u8]) -> Result<usize, WireError> {
        let Some(body) = check_frame(buf)? else {
            return Ok(0);
        };
        let frame = &buf[..HEADER_LEN + body.len()];
        match forward_port(body)? {
            Some(port) => match self.owner_of(port) {
                // An owner that is the sender itself: the port moved home
                // before the frame arrived, so bounce it back for the
                // origin kernel to deliver locally.
                Some(owner) => {
                    self.forwarded += 1;
                    self.conns[owner as usize].send_frame(frame);
                }
                None => self.dropped_unroutable += 1,
            },
            None => self.handle(from, decode_body(body)?),
        }
        Ok(frame.len())
    }

    fn handle(&mut self, from: u16, msg: WireMsg) {
        match msg {
            WireMsg::Register { port } => {
                self.directory.insert(port, from);
                self.broadcast_except(
                    from,
                    &WireMsg::ResolveR {
                        port,
                        kernel: Some(from),
                    },
                );
            }
            // Only the owner may withdraw a port.
            WireMsg::Unregister { port } if self.directory.get(&port) == Some(&from) => {
                self.directory.remove(&port);
                self.broadcast_except(from, &WireMsg::ResolveR { port, kernel: None });
            }
            WireMsg::EnvSet { key, value } => {
                // Environment writes replicate everywhere (§4 bootstrap
                // namespace is cluster-global).
                self.broadcast_except(from, &WireMsg::EnvSet { key, value });
            }
            // `Hello` needs no answer; gateways never send
            // `ResolveR` (it is the switch's answer), so one arriving is
            // harmless noise; a `Forward` never gets here decoded —
            // `next_frame` relays it.
            _ => {}
        }
    }

    fn broadcast_except(&mut self, from: u16, msg: &WireMsg) {
        for (k, conn) in self.conns.iter_mut().enumerate() {
            if k as u16 != from {
                conn.send(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;
    use crate::wire::fixtures::{big_forward, frame_around, raw_forward_body};
    use asbestos_kernel::Value;
    use asbestos_labels::chunk::Chunk;
    use asbestos_labels::Label;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    /// A switch over `kernels` socket pairs, and the kernels' ends as raw
    /// streams: what a peer wrote and what it was sent, byte for byte.
    fn switch_and_peers(kernels: usize) -> (Switch, Vec<UnixStream>) {
        let (peers, conns) = (0..kernels)
            .map(|_| {
                let (peer, sw) = UnixStream::pair().unwrap();
                peer.set_nonblocking(true).unwrap();
                (peer, FrameConn::new(sw).unwrap())
            })
            .unzip();
        (Switch::new(conns), peers)
    }

    fn frame(msg: &WireMsg) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(msg, &mut out);
        out
    }

    /// Everything the switch has sent this peer so far.
    fn received(peer: &mut UnixStream) -> Vec<u8> {
        let mut got = Vec::new();
        match peer.read_to_end(&mut got) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => got,
            other => panic!("peer socket: {other:?}"),
        }
    }

    #[test]
    fn a_forward_is_relayed_verbatim_and_unparsed() {
        let (mut switch, mut peers) = switch_and_peers(2);
        let port = Handle::from_raw(0x2000);
        peers[1]
            .write_all(&frame(&WireMsg::Register { port }))
            .unwrap();
        switch.pump().unwrap();
        let forward = frame(&big_forward(port));
        peers[0].write_all(&forward).unwrap();

        let (clones, chunks) = (Label::clone_count(), Chunk::alloc_count());
        switch.pump().unwrap();
        // The switch owns the route, not the message: it built no label.
        assert_eq!(Label::clone_count() - clones, 0);
        assert_eq!(Chunk::alloc_count() - chunks, 0);

        // The owner gets the sender's bytes — header and CRC field too.
        assert!(received(&mut peers[1]) == forward);
        assert_eq!(
            received(&mut peers[0]),
            frame(&WireMsg::ResolveR {
                port,
                kernel: Some(1)
            })
        );
        assert_eq!((switch.forwarded, switch.dropped_unroutable), (1, 0));
    }

    /// One connection's frames keep their order whatever their kind —
    /// which is what puts a route on the wire ahead of the frames that
    /// need it.
    #[test]
    fn frames_of_one_connection_keep_their_order_across_kinds() {
        let (mut switch, mut peers) = switch_and_peers(2);
        let (theirs, ours) = (Handle::from_raw(0x2000), Handle::from_raw(0x3000));
        peers[1]
            .write_all(&frame(&WireMsg::Register { port: theirs }))
            .unwrap();
        switch.pump().unwrap();

        let env = WireMsg::EnvSet {
            key: "reply".into(),
            value: Value::Handle(ours),
        };
        let (first, second) = (big_forward(theirs), big_forward(theirs));
        let mut burst = frame(&WireMsg::Register { port: ours });
        for msg in [&env, &first, &second] {
            encode_frame(msg, &mut burst);
        }
        peers[0].write_all(&burst).unwrap();
        switch.pump().unwrap();

        let mut want = frame(&WireMsg::ResolveR {
            port: ours,
            kernel: Some(0),
        });
        for msg in [&env, &first, &second] {
            encode_frame(msg, &mut want);
        }
        assert!(received(&mut peers[1]) == want);
    }

    #[test]
    fn relay_counters_follow_the_directory() {
        let (mut switch, mut peers) = switch_and_peers(2);
        let port = Handle::from_raw(0x2000);
        let forward = frame(&big_forward(port));
        let mut send = |switch: &mut Switch, from: usize, bytes: &[u8]| {
            peers[from].write_all(bytes).unwrap();
            switch.pump().unwrap();
            (switch.forwarded, switch.dropped_unroutable)
        };
        // Nobody owns the port yet: dropped, and the sender learns nothing.
        assert_eq!(send(&mut switch, 0, &forward), (0, 1));
        // Kernel 1 registers it: relayed there.
        send(&mut switch, 1, &frame(&WireMsg::Register { port }));
        assert_eq!(send(&mut switch, 0, &forward), (1, 1));
        // The owner's own send bounces home.
        assert_eq!(send(&mut switch, 1, &forward), (2, 1));
        // Only the owner may withdraw it ...
        send(&mut switch, 0, &frame(&WireMsg::Unregister { port }));
        assert_eq!(send(&mut switch, 0, &forward), (3, 1));
        // ... and once it has, the port is unroutable again.
        send(&mut switch, 1, &frame(&WireMsg::Unregister { port }));
        assert_eq!(send(&mut switch, 0, &forward), (3, 2));

        let at_owner = received(&mut peers[1]);
        assert_eq!(
            at_owner,
            [&forward[..], &forward[..], &forward[..]].concat()
        );
        assert_eq!(switch.owner_of(port), None);
    }

    /// A CRC says the bytes arrived as sent, not that they were sent
    /// well-formed: the switch checks every field of what it relays, and
    /// the connection that pays is the sender's.
    #[test]
    fn a_malformed_forward_dies_at_the_switch_on_the_senders_connection() {
        let (mut switch, mut peers) = switch_and_peers(2);
        let port = Handle::from_raw(5);
        peers[1]
            .write_all(&frame(&WireMsg::Register { port }))
            .unwrap();
        switch.pump().unwrap();
        received(&mut peers[0]);

        // Level bits 6 as `ds`'s default, behind a valid CRC.
        peers[0]
            .write_all(&frame_around(&raw_forward_body(&[], 6)))
            .unwrap();
        for _ in 0..2 {
            let err = switch.pump().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), WireError::BadLevel.to_string());
        }
        assert_eq!((switch.forwarded, switch.dropped_unroutable), (0, 0));
        let mut owner = FrameConn::new(peers.remove(1)).unwrap();
        assert_eq!(owner.pump().unwrap(), vec![]);
    }
}
