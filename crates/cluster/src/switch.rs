//! The federation switch: the hub every kernel's gateway connects to.
//!
//! The switch relays traffic between gateways and keeps no directory: a
//! port's value names the kernel whose cipher lanes minted it
//! ([`Kernel::cluster_slot_of`]), which holds its vnode, live or dead, so
//! a `Forward` goes there and the Figure 4 decision stays on the
//! destination kernel. A handle no kernel minted still has a home, which
//! drops the message as a dead port would: the sender learns nothing.
//!
//! **A `Forward` is relayed verbatim.** The switch owns the route, not
//! the message, and a relay's function is the identity on the bytes it
//! does not own. For each complete inbound frame it checks header and CRC
//! once ([`check_frame`]); if the body is a `Forward` it walks the body
//! with [`forward_port`] — every check the destination's decoder will
//! make (level bits, canonical label runs, lengths, UTF-8, value tags,
//! nesting depth, trailing bytes), building no `Label`, `Value` or `Vec`
//! — reads the port, and appends the frame's original bytes, header and
//! CRC included, from the sender's inbound buffer to the home kernel's
//! outbound buffer. It never holds a decoded `Forward`, never re-encodes
//! one and never re-checksums one. Every other message (`Hello`,
//! `EnvSet`) is decoded and handled.
//!
//! **Who pays for a bad frame.** The switch rejects exactly what
//! [`decode_frame`](crate::wire::decode_frame) rejects: a frame that fails
//! any check — CRC-valid but malformed ones included — makes
//! [`Switch::pump`] return `InvalidData` while draining the connection of
//! the kernel that *sent* it, and nothing of it reaches the destination.

use std::io;

use asbestos_kernel::Kernel;
use asbestos_labels::HandleCipher;

use crate::conn::FrameConn;
use crate::wire::{check_frame, decode_body, forward_port, WireError, WireMsg, HEADER_LEN};

/// The cluster's relay hub.
pub struct Switch {
    /// One connection per kernel, indexed by kernel id.
    conns: Vec<FrameConn>,
    /// The federation's handle cipher, which finds a port's home (4 KiB
    /// of S-boxes, kept off the `Cluster`'s own footprint).
    cipher: Box<HandleCipher>,
    /// Shards per kernel.
    shards: usize,
    /// `Forward`s relayed to their destination kernel.
    pub forwarded: u64,
}

impl Switch {
    /// Builds the switch over one connection per kernel, index = kernel
    /// id, for the kernels `Kernel::with_cluster_slot(seed, _, shards, 0,
    /// k, conns.len())`.
    pub fn new(conns: Vec<FrameConn>, seed: u64, shards: usize) -> Switch {
        Switch {
            conns,
            cipher: Box::new(HandleCipher::new(seed)),
            shards,
            forwarded: 0,
        }
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
                match self.next_frame(k, &inbound[used..]) {
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
    /// CRC included, to the kernel that minted its port (the sender
    /// itself, maybe): the switch owns the route, not the message.
    fn next_frame(&mut self, from: usize, buf: &[u8]) -> Result<usize, WireError> {
        let Some(body) = check_frame(buf)? else {
            return Ok(0);
        };
        let frame = &buf[..HEADER_LEN + body.len()];
        match forward_port(body)? {
            Some(port) => {
                let home =
                    Kernel::cluster_slot_of(&self.cipher, port, self.shards, self.conns.len());
                self.forwarded += 1;
                self.conns[home].send_frame(frame);
            }
            // Environment writes replicate everywhere (§4's bootstrap
            // namespace is cluster-global); `Hello` needs no answer.
            None => {
                if let msg @ WireMsg::EnvSet { .. } = decode_body(body)? {
                    for (k, conn) in self.conns.iter_mut().enumerate() {
                        if k != from {
                            conn.send(&msg);
                        }
                    }
                }
            }
        }
        Ok(frame.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;
    use crate::wire::fixtures::{big_forward, frame_around, raw_forward_body};
    use asbestos_kernel::Value;
    use asbestos_labels::chunk::Chunk;
    use asbestos_labels::{Handle, HandleAllocator, Label};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    const SEED: u64 = 0x5317;
    const SHARDS: usize = 2;

    /// A switch over `kernels` socket pairs of `SHARDS`-shard kernels, and
    /// the kernels' ends as raw streams: what a peer wrote and what it was
    /// sent, byte for byte.
    fn switch_and_peers(kernels: usize) -> (Switch, Vec<UnixStream>) {
        let (peers, conns) = (0..kernels)
            .map(|_| {
                let (peer, sw) = UnixStream::pair().unwrap();
                peer.set_nonblocking(true).unwrap();
                (peer, FrameConn::new(sw).unwrap())
            })
            .unzip();
        (Switch::new(conns, SEED, SHARDS), peers)
    }

    /// A handle shard `shard` of kernel `k` of `kernels` mints, as
    /// `Kernel::with_cluster_slot` lays out the lanes.
    fn minted_on(k: usize, shard: usize, kernels: usize) -> Handle {
        let lane = (k * SHARDS + shard) as u64;
        HandleAllocator::with_partition(SEED, lane, (kernels * SHARDS) as u64).alloc()
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
        let forward = frame(&big_forward(minted_on(1, 0, 2)));
        peers[0].write_all(&forward).unwrap();

        let (clones, chunks) = (Label::clone_count(), Chunk::alloc_count());
        switch.pump().unwrap();
        // The switch owns the route, not the message: it built no label.
        assert_eq!(Label::clone_count() - clones, 0);
        assert_eq!(Chunk::alloc_count() - chunks, 0);

        // The home kernel gets the sender's bytes — header and CRC field
        // too — and nothing else is sent anywhere.
        assert!(received(&mut peers[1]) == forward);
        assert!(received(&mut peers[0]).is_empty());
        assert_eq!(switch.forwarded, 1);
    }

    /// One connection's frames keep their order whatever their kind.
    #[test]
    fn frames_of_one_connection_keep_their_order_across_kinds() {
        let (mut switch, mut peers) = switch_and_peers(2);
        let (theirs, ours) = (minted_on(1, 1, 2), minted_on(0, 0, 2));
        let env = WireMsg::EnvSet {
            key: "reply".into(),
            value: Value::Handle(ours),
        };
        let (first, second) = (big_forward(theirs), big_forward(theirs));
        let mut burst = Vec::new();
        for msg in [&env, &first, &second] {
            encode_frame(msg, &mut burst);
        }
        peers[0].write_all(&burst).unwrap();
        switch.pump().unwrap();
        assert!(received(&mut peers[1]) == burst);
    }

    /// A `Forward` for a port kernel `k` minted reaches `k` with no frame
    /// before it, from every sender — `k` itself included — and on a lane
    /// count that is not a power of two.
    #[test]
    fn relay_counters_follow_the_minting_kernel() {
        let kernels = 3;
        let (mut switch, mut peers) = switch_and_peers(kernels);
        let mut relayed = 0;
        for k in 0..kernels {
            for shard in 0..SHARDS {
                let forward = frame(&big_forward(minted_on(k, shard, kernels)));
                for from in 0..kernels {
                    peers[from].write_all(&forward).unwrap();
                    switch.pump().unwrap();
                    relayed += 1;
                    assert_eq!(switch.forwarded, relayed);
                    for (j, peer) in peers.iter_mut().enumerate() {
                        let got = received(peer);
                        assert!(
                            got == if j == k { &forward[..] } else { &[][..] },
                            "a Forward to kernel {k}'s port from {from} reached {j}"
                        );
                    }
                }
            }
        }
    }

    /// A CRC says the bytes arrived as sent, not that they were sent
    /// well-formed: the switch checks every field of what it relays, and
    /// the connection that pays is the sender's.
    #[test]
    fn a_malformed_forward_dies_at_the_switch_on_the_senders_connection() {
        let (mut switch, mut peers) = switch_and_peers(2);
        // Level bits 6 as `ds`'s default, behind a valid CRC.
        peers[0]
            .write_all(&frame_around(&raw_forward_body(&[], 6)))
            .unwrap();
        for _ in 0..2 {
            let err = switch.pump().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), WireError::BadLevel.to_string());
        }
        assert_eq!(switch.forwarded, 0);
        for peer in peers {
            let mut conn = FrameConn::new(peer).unwrap();
            assert_eq!(conn.pump().unwrap(), vec![]);
        }
    }
}
