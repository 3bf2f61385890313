//! Messages and the optional send labels (§5, Figure 4).

use std::sync::Arc;

use asbestos_labels::{Handle, Label};

use crate::ids::ExecCtx;
use crate::value::Value;

/// The four optional label arguments to `send` (Figure 4).
///
/// Defaults make every label a no-op:
///
/// * `contaminate` (`C_S`) defaults to `{⋆}` — adds no contamination (§5.2);
/// * `decont_send` (`D_S`) defaults to `{3}` — grants nothing;
/// * `verify` (`V`) defaults to `{3}` — proves nothing, restricts nothing;
/// * `decont_recv` (`D_R`) defaults to `{⋆}` — raises nothing.
#[derive(Clone, Debug)]
pub struct SendArgs {
    /// `C_S`: extra contamination applied to this message. Requires no
    /// privilege — contamination only ever restricts information flow.
    pub contaminate: Label,
    /// `D_S`: lowers the receiver's send label (grants privilege/clears
    /// taint). Every handle below `3` requires the sender to hold `⋆`.
    pub decont_send: Label,
    /// `V`: proves an upper bound on the sender's effective send label; also
    /// delivered to the receiving application (§5.4).
    pub verify: Label,
    /// `D_R`: raises the receiver's receive label. Every handle above `⋆`
    /// requires the sender to hold `⋆`, and `D_R ⊑ p_R` must hold.
    pub decont_recv: Label,
}

impl Default for SendArgs {
    fn default() -> SendArgs {
        SendArgs {
            contaminate: Label::bottom(),
            decont_send: Label::top(),
            verify: Label::top(),
            decont_recv: Label::bottom(),
        }
    }
}

impl SendArgs {
    /// No optional labels: plain contaminating send.
    pub fn new() -> SendArgs {
        SendArgs::default()
    }

    /// Adds contamination `C_S` entries.
    pub fn contaminate(mut self, label: Label) -> SendArgs {
        self.contaminate = label;
        self
    }

    /// Sets the decontaminate-send label `D_S`.
    pub fn grant(mut self, label: Label) -> SendArgs {
        self.decont_send = label;
        self
    }

    /// Sets the verification label `V`.
    pub fn verify(mut self, label: Label) -> SendArgs {
        self.verify = label;
        self
    }

    /// Sets the decontaminate-receive label `D_R`.
    pub fn raise_recv(mut self, label: Label) -> SendArgs {
        self.decont_recv = label;
        self
    }

    /// Total explicit entries across the four labels (cost accounting).
    pub fn label_work(&self) -> usize {
        self.contaminate.entry_count()
            + self.decont_send.entry_count()
            + self.verify.entry_count()
            + self.decont_recv.entry_count()
    }
}

/// A message as seen by the receiving application.
///
/// Only the destination port, the payload, and the verification label are
/// visible; the kernel consumes `C_S`/`D_S`/`D_R` when applying Figure 4's
/// effects. Receivers never learn the sender's identity except through `V`
/// (avoiding the confused-deputy pitfall §5.4 discusses).
#[derive(Clone, Debug)]
pub struct Message {
    /// The port this message was delivered to.
    pub port: Handle,
    /// The payload.
    pub body: Value,
    /// The sender's verification label `V`, passed up on delivery (§5.4).
    pub verify: Label,
}

/// A message bound for a port on another *kernel* (federation; see
/// `crates/cluster`).
///
/// The sender-side Figure 4 checks — the two decontamination privilege
/// requirements and the `E_S = P_S ⊔ C_S` snapshot — already ran on the
/// source kernel when `send` resolved; what crosses the wire is exactly
/// the label state a locally queued message would carry, minus the sending
/// context (an `ExecCtx` is meaningless outside its own kernel, and
/// receivers never learn sender identity except through `V` anyway).
/// The delivery-time check runs on the destination kernel, against
/// destination-side state only.
#[derive(Clone, Debug)]
pub struct RemoteSend {
    /// Destination port (owned by another kernel).
    pub port: Handle,
    /// Payload.
    pub body: Value,
    /// The sender's effective send label `E_S`, snapshotted at send time.
    pub es: Arc<Label>,
    /// Decontaminate-send label.
    pub ds: Label,
    /// Decontaminate-receive label.
    pub dr: Label,
    /// Verification label.
    pub v: Label,
}

/// A message queued in the kernel, before delivery-time label checks.
#[derive(Clone, Debug)]
pub(crate) struct QueuedMessage {
    /// Destination port.
    pub port: Handle,
    /// Payload.
    pub body: Value,
    /// The sender's *effective* send label `E_S = P_S ⊔ C_S`, snapshotted at
    /// send time. `Arc`-shared with the sender's label when `C_S` is a
    /// no-op, so repeated sends carry the same label identity.
    pub es: Arc<Label>,
    /// Decontaminate-send label.
    pub ds: Label,
    /// Decontaminate-receive label.
    pub dr: Label,
    /// Verification label.
    pub v: Label,
    /// Sending context, for god-mode statistics only (never exposed to
    /// receivers).
    pub from: Option<ExecCtx>,
}

impl QueuedMessage {
    /// Accounted bytes for queue memory accounting, *excluding* payload
    /// backing buffers. Queued payloads are refcounted views, so billing
    /// `Value::size_bytes` per message would charge one shared buffer
    /// once per queued clone; the kmem report instead adds each unique
    /// backing buffer once (see [`crate::Kernel::kmem_report`]). For a
    /// message whose payloads are unshared whole-buffer views the two
    /// schemes sum to the same total.
    pub fn queue_bytes_shallow(&self) -> usize {
        let mut payload_window_bytes = 0;
        self.body
            .for_each_payload(&mut |p| payload_window_bytes += p.len());
        // Message header + payload headers + the four label snapshots.
        48 + self.body.size_bytes() - payload_window_bytes
            + self.es.heap_bytes()
            + self.ds.heap_bytes()
            + self.dr.heap_bytes()
            + self.v.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbestos_labels::Level;

    #[test]
    fn default_args_are_noops() {
        let args = SendArgs::default();
        assert_eq!(args.contaminate.default_level(), Level::Star);
        assert_eq!(args.decont_send.default_level(), Level::L3);
        assert_eq!(args.verify.default_level(), Level::L3);
        assert_eq!(args.decont_recv.default_level(), Level::Star);
        assert_eq!(args.label_work(), 0);
    }

    #[test]
    fn builder_chains() {
        let h = Handle::from_raw(5);
        let args = SendArgs::new()
            .contaminate(Label::from_pairs(Level::Star, &[(h, Level::L3)]))
            .grant(Label::from_pairs(Level::L3, &[(h, Level::Star)]));
        assert_eq!(args.contaminate.get(h), Level::L3);
        assert_eq!(args.decont_send.get(h), Level::Star);
        assert_eq!(args.label_work(), 2);
    }
}
