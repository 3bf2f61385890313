//! The per-kernel gateway: a kernel's ambassador to the federation.
//!
//! Each kernel in a cluster gets one [`Gateway`], which owns that
//! kernel's end of one link to every other kernel and translates between
//! kernel state and wire traffic:
//!
//! * **Outbound** ([`Gateway::pump_out`]): drains the kernel's log of
//!   global-environment writes and sends each to every peer as `EnvSet`;
//!   drains the kernel's remote-send egress — every send to a handle
//!   another kernel's cipher lane minted, parked with that home kernel —
//!   and writes each message as one `Forward` frame on the link to its
//!   home. The gateway computes nothing, and nothing announces a port.
//! * **Inbound** ([`Gateway::pump_in`]): applies replicated `EnvSet`s with
//!   [`Kernel::apply_remote_env`], which logs nothing, so a replicated
//!   write is never sent back; and injects `Forward`s via
//!   [`Kernel::inject_remote`], where the ordinary delivery path re-runs
//!   the Figure 4 check against *this* kernel's state. Verdicts never cross
//!   the wire; only labels do.
//!
//! All traffic from one kernel to another shares one link, so messages
//! from one sender to one port arrive in the order they were sent.
//!
//! **Labels travel as chunks.** Each direction of each link has one
//! [`ChunkTable`](crate::wire::ChunkTable) at each end, kept by the
//! link's [`FrameConn`]. Both ends run one replacement rule, so a label
//! chunk the peer still holds crosses as a one-byte reference, and a peer
//! can pin at most [`SLOTS`](crate::wire::SLOTS) chunks here per link
//! direction. The gateway itself sees only whole messages.
//!
//! **Who pays for a bad frame.** The receiving link's
//! [`ChunkTable::decode_frame`](crate::wire::ChunkTable::decode_frame) is
//! the only check a frame meets. One that fails it — CRC-valid but
//! malformed ones included — closes the link that carried it: the frames
//! before it are delivered,
//! nothing of it or after it is, and every other link keeps running. A
//! link whose socket fails is closed the same way, so the sender's end
//! closes once it next writes.

use std::sync::Arc;

use asbestos_kernel::{Kernel, RemoteSend};

use crate::conn::{ConnStats, FrameConn};
use crate::wire::WireMsg;

/// One kernel's links to the rest of the federation.
pub struct Gateway {
    /// One link per peer, indexed by kernel id: `None` at this kernel's
    /// own id and where a link was closed.
    links: Vec<Option<FrameConn>>,
    /// `Forward`s this kernel sent on a link.
    pub forwarded_out: u64,
    /// `Forward`s injected into this kernel off a link.
    pub forwarded_in: u64,
}

impl Gateway {
    /// A kernel's gateway over its links, indexed by kernel id (`None` at
    /// the kernel's own).
    pub fn new(links: Vec<Option<FrameConn>>) -> Gateway {
        Gateway {
            links,
            forwarded_out: 0,
            forwarded_in: 0,
        }
    }

    /// Wire traffic counters summed over this kernel's open links.
    pub fn wire_stats(&self) -> ConnStats {
        self.links.iter().flatten().map(FrameConn::stats).sum()
    }

    /// Serializes new kernel state onto the links: environment writes to
    /// every peer, then each remote send to the home kernel it was parked
    /// with. Returns the number of messages handled.
    pub fn pump_out(&mut self, kernel: &mut Kernel) -> u64 {
        let mut handled = 0u64;
        for (key, value) in kernel.take_env_log() {
            let msg = WireMsg::EnvSet { key, value };
            for conn in self.links.iter_mut().flatten() {
                conn.send(&msg);
                handled += 1;
            }
        }
        for (home, rs) in kernel.take_remote_egress() {
            handled += 1;
            if let Some(conn) = &mut self.links[home] {
                conn.send(&WireMsg::Forward {
                    port: rs.port,
                    es: (*rs.es).clone(),
                    ds: rs.ds,
                    dr: rs.dr,
                    v: rs.v,
                    body: rs.body,
                });
                self.forwarded_out += 1;
            }
        }
        handled
    }

    /// Applies everything the peers sent, link by link in kernel-id
    /// order. Returns the number of frames handled.
    pub fn pump_in(&mut self, kernel: &mut Kernel) -> u64 {
        let mut handled = 0u64;
        for link in &mut self.links {
            let Some(conn) = link else { continue };
            let Ok(msgs) = conn.pump() else {
                *link = None;
                continue;
            };
            for msg in msgs {
                handled += 1;
                match msg {
                    WireMsg::EnvSet { key, value } => kernel.apply_remote_env(&key, value),
                    WireMsg::Forward {
                        port,
                        es,
                        ds,
                        dr,
                        v,
                        body,
                    } => {
                        self.forwarded_in += 1;
                        kernel.inject_remote(RemoteSend {
                            port,
                            body,
                            es: Arc::new(es),
                            ds,
                            dr,
                            v,
                        });
                    }
                }
            }
        }
        handled
    }

    /// Pushes buffered frames into every open link; returns bytes moved.
    pub fn flush(&mut self) -> u64 {
        let mut moved = 0u64;
        for link in &mut self.links {
            if let Some(conn) = link {
                match conn.flush() {
                    Ok(n) => moved += n as u64,
                    Err(_) => *link = None,
                }
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::wire::fixtures::{
        encode_at, frame_around, raw_forward_body, raw_label, uniform_labels,
    };
    use asbestos_kernel::util::service_with_start;
    use asbestos_kernel::{Category, Handle, Label, Value};
    use asbestos_labels::HandleAllocator;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    const SEED: u64 = 0x5317;

    /// A settled cluster of `kernels` kernels. Kernel `k` runs a sender
    /// that publishes its trigger port as `trigger.k` and, sent a handle
    /// there, sends `Unit` to it.
    fn senders(kernels: usize) -> Cluster {
        let mut cluster = Cluster::new(SEED, kernels, 1);
        for (k, node) in cluster.nodes.iter_mut().enumerate() {
            let sender = service_with_start(
                move |sys| {
                    let trigger = sys.new_port(Label::top());
                    sys.set_port_label(trigger, Label::top()).unwrap();
                    sys.publish_env(&format!("trigger.{k}"), Value::Handle(trigger));
                },
                |sys, msg| {
                    if let Some(target) = msg.body.as_handle() {
                        sys.send(target, Value::Unit).unwrap();
                    }
                },
            );
            node.kernel.spawn("sender", Category::Other, sender);
        }
        cluster.run();
        cluster
    }

    fn trigger(cluster: &Cluster, k: usize) -> Handle {
        let key = format!("trigger.{k}");
        cluster.nodes[k].kernel.global_env_handle(&key).unwrap()
    }

    /// Has kernel `from`'s sender send to `target`, running that kernel
    /// only: the send waits in its egress.
    fn send(cluster: &mut Cluster, from: usize, target: Handle) {
        let trigger = trigger(cluster, from);
        let kernel = &mut cluster.nodes[from].kernel;
        kernel.inject(trigger, Value::Handle(target));
        kernel.run();
    }

    /// The `n`th handle kernel `k` of `kernels` mints, as
    /// `Kernel::with_cluster_slot` lays out the lanes.
    fn minted_on(k: usize, kernels: usize, n: usize) -> Handle {
        let mut alloc = HandleAllocator::with_partition(SEED, k as u64, kernels as u64);
        (0..n).map(|_| alloc.alloc()).last().unwrap()
    }

    /// Frames each kernel has read off each of its links, `[to][from]`.
    fn frames_in(cluster: &Cluster) -> Vec<Vec<u64>> {
        let link = |l: &Option<FrameConn>| l.as_ref().map_or(0, |c| c.stats().frames_in);
        let node = |n: &crate::ClusterNode| n.gateway.links.iter().map(link).collect();
        cluster.nodes.iter().map(node).collect()
    }

    fn note(n: u64) -> WireMsg {
        WireMsg::EnvSet {
            key: "note".into(),
            value: Value::U64(n),
        }
    }

    /// A `Forward` for a port kernel `k` minted travels, from every other
    /// kernel, on the link to `k` and on no other — on a lane count (3)
    /// that is not a power of two.
    #[test]
    fn a_forward_travels_only_on_the_link_to_its_home() {
        let kernels = 3;
        let mut cluster = senders(kernels);
        for k in 0..kernels {
            for n in 1..=2 {
                let target = minted_on(k, kernels, n);
                for from in (0..kernels).filter(|&from| from != k) {
                    let (before, routed) = (frames_in(&cluster), cluster.switch().forwarded);
                    send(&mut cluster, from, target);
                    cluster.run();
                    let after = frames_in(&cluster);
                    for (to, links) in after.iter().enumerate() {
                        for (src, &n) in links.iter().enumerate() {
                            let want = u64::from((to, src) == (k, from));
                            assert_eq!(
                                n - before[to][src],
                                want,
                                "{from} → {k}: link {src} → {to}"
                            );
                        }
                    }
                    assert_eq!(cluster.switch().forwarded, routed + 1);
                }
            }
        }
    }

    /// All traffic from one kernel to another shares one link, so it
    /// arrives in the order it was sent, whatever its kinds.
    #[test]
    fn frames_of_one_link_keep_their_order_across_kinds() {
        let mut cluster = senders(2);
        let targets = [minted_on(1, 2, 7), minted_on(1, 2, 8)];
        for (n, target) in (1..).zip(targets) {
            cluster.nodes[0]
                .kernel
                .set_global_env("note", Value::U64(n));
            send(&mut cluster, 0, target);
            let node = &mut cluster.nodes[0];
            assert_eq!(node.gateway.pump_out(&mut node.kernel), 2);
        }
        cluster.nodes[0].gateway.flush();
        let link = cluster.nodes[1].gateway.links[0].as_mut().unwrap();
        // Each `EnvSet` as its value, each `Forward` as its port.
        let got: Vec<Value> = (link.pump().unwrap().into_iter())
            .map(|m| match m {
                WireMsg::EnvSet { value, .. } => value,
                WireMsg::Forward { port, .. } => Value::Handle(port),
            })
            .collect();
        let [first, second] = targets.map(Value::Handle);
        assert_eq!(got, [Value::U64(1), first, Value::U64(2), second]);
    }

    /// A handle nobody minted, on the sender's own lane, never leaves the
    /// sender: one `NoSuchPort` drop on the sender's kernel, no egress and
    /// no frame.
    #[test]
    fn a_never_minted_handle_on_the_senders_lane_costs_one_drop_and_no_frame() {
        let kernels = 3;
        let mut cluster = senders(kernels);
        let target = minted_on(0, kernels, 100);
        let (before, frames) = (cluster.stats(), cluster.wire_stats().frames_out);
        let no_port = |c: &Cluster| c.nodes[0].kernel.stats().dropped_no_port;
        let (k0, routed) = (no_port(&cluster), cluster.switch().forwarded);
        send(&mut cluster, 0, target);
        assert!(cluster.nodes[0].kernel.take_remote_egress().is_empty());
        cluster.run();
        let after = cluster.stats();
        assert_eq!(after.dropped_total() - before.dropped_total(), 1);
        assert_eq!(no_port(&cluster) - k0, 1, "dropped on the sender's kernel");
        assert_eq!(cluster.wire_stats().frames_out, frames);
        assert_eq!(cluster.switch().forwarded, routed);
    }

    /// Relinks kernels `a` and `b` over a fresh socket pair and returns a
    /// second handle on `a`'s end: what is written there reaches `b` as if
    /// `a` had sent it.
    fn tap(cluster: &mut Cluster, a: usize, b: usize) -> UnixStream {
        let (a_end, b_end) = UnixStream::pair().unwrap();
        let tap = a_end.try_clone().unwrap();
        cluster.nodes[a].gateway.links[b] = Some(FrameConn::new(a_end).unwrap());
        cluster.nodes[b].gateway.links[a] = Some(FrameConn::new(b_end).unwrap());
        tap
    }

    /// Who pays for a bad frame. Kernel 0 writes a CRC-valid `Forward` with
    /// level bits 6 on its link to kernel 1, between two good `EnvSet`s.
    /// Kernel 1 applies the first, gets nothing of the rest and closes that
    /// link; the links between kernels 0 and 2 and 1 and 2 carry on; and
    /// nothing panics.
    #[test]
    fn a_malformed_frame_closes_only_the_link_that_carried_it() {
        let mut cluster = senders(3);
        let mut burst = Vec::new();
        encode_at(0, &note(1), &mut burst);
        let mut labels = uniform_labels();
        labels[1] = raw_label(6, &[]);
        burst.extend(frame_around(1, &raw_forward_body(labels)));
        encode_at(2, &note(2), &mut burst);
        tap(&mut cluster, 0, 1).write_all(&burst).unwrap();
        let k1 = format!("{:?}", cluster.nodes[1].kernel.stats());
        cluster.run();
        let node = &cluster.nodes[1];
        assert_eq!(node.kernel.global_env("note"), Some(Value::U64(1)));
        assert!(node.gateway.links[0].is_none(), "the link is closed");
        assert_eq!(format!("{:?}", node.kernel.stats()), k1);
        assert_eq!(node.gateway.forwarded_in, 0);

        // Every other link carries traffic both ways. Kernel 0's end of the
        // dead link closes when it next writes there, and what it wrote is
        // lost.
        for (from, to) in [(0, 2), (2, 0), (1, 2), (2, 1), (0, 1)] {
            let delivered = cluster.nodes[to].kernel.stats().delivered;
            let target = trigger(&cluster, to);
            send(&mut cluster, from, target);
            cluster.run();
            let got = cluster.nodes[to].kernel.stats().delivered - delivered;
            assert_eq!(got, u64::from((from, to) != (0, 1)), "{from} → {to}");
        }
        assert!(cluster.nodes[0].gateway.links[1].is_none());
    }
}
