//! The system-call surface handed to running services.

use std::sync::Arc;

use asbestos_labels::{Handle, Label, Level};

use crate::backpressure::SendVerdict;
use crate::cycles::Category;
use crate::delivery::keep_or_wrap;
use crate::error::{SysError, SysResult};
use crate::handle_table::PortOwner;
use crate::ids::{EpId, ExecCtx, ProcessId};
use crate::memory::{page_segments, PAGE_SIZE};
use crate::message::SendArgs;
use crate::process::{Body, EpService, Service};
use crate::router::Router;
use crate::shard::KernelShard;
use crate::value::Value;

/// The system-call interface for the currently executing context.
///
/// A `Sys` is constructed by the kernel for each handler invocation. When
/// the context is an event process, label operations, port creation, and
/// memory writes resolve against the event process's private state (§6.1);
/// otherwise they act on the (base) process.
///
/// Every operation resolves against the executing context's own shard —
/// processes, event processes, ports, and frames are shard-local by
/// construction — except sends to remote ports (which queue into the
/// shard's outbox for the router) and the global environment (which lives
/// behind the shared [`Router`]).
pub struct Sys<'k> {
    shard: &'k mut KernelShard,
    router: &'k Router,
    ctx: ExecCtx,
    is_new_ep: bool,
}

impl<'k> Sys<'k> {
    pub(crate) fn new(
        shard: &'k mut KernelShard,
        router: &'k Router,
        ctx: ExecCtx,
        is_new_ep: bool,
    ) -> Sys<'k> {
        Sys {
            shard,
            router,
            ctx,
            is_new_ep,
        }
    }

    // ------------------------------------------------------------------
    // Identity and environment.
    // ------------------------------------------------------------------

    /// The current process id (simulator bookkeeping, not a capability).
    pub fn pid(&self) -> ProcessId {
        self.ctx.pid
    }

    /// The current event process, if executing in one.
    pub fn ep_id(&self) -> Option<EpId> {
        self.ctx.ep
    }

    /// True exactly when this activation created a fresh event process.
    ///
    /// The paper's idiom is to check a memory location the base process
    /// initialized to zero (§6.1); this accessor is the ergonomic
    /// equivalent (the kernel knows it just forked the EP), and the memory
    /// idiom works too via [`Sys::mem_read`].
    pub fn is_new_ep(&self) -> bool {
        self.is_new_ep
    }

    /// The process's debug name.
    pub fn name(&self) -> &str {
        &self.shard.processes[self.ctx.pid.index()].name
    }

    /// Reads an environment entry: process-local first, then global (§4's
    /// bootstrap convention for discovering service port names).
    pub fn env(&self, key: &str) -> Option<Value> {
        let p = &self.shard.processes[self.ctx.pid.index()];
        p.env.get(key).cloned().or_else(|| self.router.env_get(key))
    }

    /// Sets a process-local environment entry (inherited by children).
    pub fn set_env(&mut self, key: &str, value: Value) {
        self.shard.processes[self.ctx.pid.index()]
            .env
            .insert(key.to_string(), value);
    }

    /// Publishes an entry in the global environment. Real Asbestos
    /// bootstraps through init-provided environments; the global namespace
    /// plays that role here.
    pub fn publish_env(&mut self, key: &str, value: Value) {
        self.router.env_set(key, value);
    }

    // ------------------------------------------------------------------
    // Handles, ports, labels.
    // ------------------------------------------------------------------

    /// `new_handle`: allocates a fresh compartment and grants the caller
    /// `⋆` for it (§5.3: "A process initially has privilege for every
    /// handle it creates").
    pub fn new_handle(&mut self) -> Handle {
        let h = self.shard.handles.new_handle();
        self.shard
            .clock
            .charge(Category::KernelIpc, self.shard.cost.new_handle);
        // `make_mut` takes a private copy only when the storage is shared
        // (with an event process or a queued message).
        Arc::make_mut(self.send_slot()).set(h, Level::Star);
        h
    }

    /// `new_port`: allocates a port with receive rights for the caller.
    ///
    /// Per Figure 4 the kernel stores `label` with `p_R(p) ← 0` applied and
    /// sets `P_S(p) ← ⋆`, so initially nobody else can send to the port.
    pub fn new_port(&mut self, label: Label) -> Handle {
        let owner = match self.ctx.ep {
            Some(eid) => PortOwner::Ep(eid),
            None => PortOwner::Process(self.ctx.pid),
        };
        let p = self.shard.handles.new_port(label, owner);
        self.router.register_port(p, self.shard.id);
        self.shard
            .clock
            .charge(Category::KernelIpc, self.shard.cost.new_port);
        Arc::make_mut(self.send_slot()).set(p, Level::Star);
        if let Some(eid) = self.ctx.ep {
            self.shard.eps[eid.index()].ports.push(p);
        }
        p
    }

    /// `set_port_label`: replaces a port's label verbatim (Figure 4: unlike
    /// `new_port`, this call "doesn't modify its input").
    pub fn set_port_label(&mut self, port: Handle, label: Label) -> SysResult<()> {
        self.require_port_owner(port)?;
        self.shard
            .handles
            .port_mut(port)
            .expect("ownership verified above")
            .label = label;
        Ok(())
    }

    /// Reads a port's label; only the owner may observe it (port labels
    /// change dynamically and would otherwise be a storage channel).
    pub fn port_label(&self, port: Handle) -> SysResult<Label> {
        self.check_port_owner(port)?;
        Ok(self
            .shard
            .handles
            .port(port)
            .expect("ownership verified above")
            .label
            .clone())
    }

    /// Drops receive rights: the handle remains valid as a compartment, but
    /// messages sent to it are silently discarded.
    pub fn dissociate_port(&mut self, port: Handle) -> SysResult<()> {
        self.require_port_owner(port)?;
        self.shard.handles.dissociate(port);
        self.router.unregister_port(port);
        if let Some(eid) = self.ctx.ep {
            self.shard.eps[eid.index()].ports.retain(|&p| p != port);
        }
        Ok(())
    }

    /// The caller's current send label `P_S`.
    pub fn send_label(&self) -> Label {
        Label::clone(self.send_ref())
    }

    /// The caller's current receive label `P_R`.
    pub fn recv_label(&self) -> Label {
        Label::clone(self.recv_ref())
    }

    /// `P_S(h)`: one level of the caller's send label, read in place.
    pub fn send_level(&self, h: Handle) -> Level {
        self.send_ref().get(h)
    }

    /// Whether the caller holds declassification privilege for `h`.
    pub fn has_star(&self, h: Handle) -> bool {
        self.send_level(h) == Level::Star
    }

    /// Self-contamination: `P_S ← P_S ⊔ label`. Raising one's own send
    /// label requires no privilege — this is also the paper's "special
    /// variant of the send system call" for discarding `⋆` levels, since
    /// `max(⋆, ℓ) = ℓ`.
    pub fn self_contaminate(&mut self, label: &Label) {
        let slot = self.send_slot();
        let raised = keep_or_wrap(slot, slot.join(label));
        *slot = raised;
    }

    /// Voluntarily lowers the receive label: `P_R ← P_R ⊓ label`. Making a
    /// process more restrictive requires no privilege (§5.2's targeted
    /// exclusion policies use this).
    pub fn lower_recv_label(&mut self, label: &Label) {
        let slot = self.recv_slot();
        let lowered = keep_or_wrap(slot, slot.meet(label));
        *slot = lowered;
    }

    /// Raises the receive level for one handle; requires `P_S(h) = ⋆`
    /// (raising receive labels makes the system more permissive, §5.2, and
    /// is self-decontamination in Figure 4's terms).
    pub fn raise_recv(&mut self, h: Handle, level: Level) -> SysResult<()> {
        if level <= self.recv_ref().get(h) {
            return Ok(());
        }
        if !self.has_star(h) {
            return Err(SysError::PrivilegeViolation);
        }
        Arc::make_mut(self.recv_slot()).set(h, level);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Messaging.
    // ------------------------------------------------------------------

    /// Sends a message with no optional labels.
    ///
    /// Like the real system call, success says nothing about delivery: the
    /// label checks run when the receiver is scheduled, and failures drop
    /// the message silently (§4). With backpressure armed the returned
    /// [`SendVerdict`] reports queue admission (delivered/deferred), and
    /// a sender persistently over its credit window gets
    /// [`SysError::WouldBlock`]; both are computed purely from the
    /// caller's own send history (see [`crate::backpressure`]).
    pub fn send(&mut self, port: Handle, body: Value) -> SysResult<SendVerdict> {
        self.send_args(port, body, &SendArgs::default())
    }

    /// Sends a message with optional labels (Figure 4's full `send`).
    ///
    /// Errors are returned only for conditions computable from the caller's
    /// own state (privilege requirements 2 and 3, and — with backpressure
    /// armed — the caller's own exhausted credit window); everything else
    /// is silent by design.
    pub fn send_args(
        &mut self,
        port: Handle,
        body: Value,
        args: &SendArgs,
    ) -> SysResult<SendVerdict> {
        self.shard
            .send_from(self.router, self.ctx, port, body, args)
    }

    /// The caller's remaining send credits for `port` (how many sends
    /// its next activation burst can make before they defer). Derived
    /// exclusively from the caller's own credit state, so exposing it
    /// leaks nothing. With backpressure off this is always the full
    /// default window.
    pub fn send_credit(&self, port: Handle) -> u32 {
        self.shard.bp.credit_state(self.ctx.pid, port).1
    }

    /// Whether the local shard's mailbox depth has crossed its shed
    /// threshold — the hint deployment-side shedders (netd accept paths)
    /// use to refuse new work at the edge instead of queueing it.
    ///
    /// This is deliberately a *deployment* facility, not a simulated-user
    /// one: aggregate shard load is the kind of whole-system timing
    /// signal §8 already concedes to a determined observer, and the
    /// trusted services that consult it (netd) are unlabeled. Labeled
    /// user code never sees it.
    pub fn overloaded(&self) -> bool {
        self.shard.mailboxes.len() >= self.shard.shed_threshold
    }

    // ------------------------------------------------------------------
    // Memory.
    // ------------------------------------------------------------------

    /// Writes bytes into the caller's address space. Inside an event
    /// process, touched pages become private copies (copy-on-write, §6.2).
    pub fn mem_write(&mut self, addr: u64, data: &[u8]) -> SysResult<()> {
        let segments = page_segments(addr, data.len())?;
        let mut offset = 0;
        for (vpn, page_off, len) in segments {
            let slice = &data[offset..offset + len];
            match self.ctx.ep {
                None => {
                    let pid = self.ctx.pid;
                    let frame = match self.shard.processes[pid.index()].page_table.get(vpn) {
                        Some(f) => f,
                        None => {
                            let f = self.shard.frames.alloc_zeroed();
                            self.shard.processes[pid.index()].page_table.map(vpn, f);
                            f
                        }
                    };
                    self.shard.frames.write(frame, page_off, slice);
                }
                Some(eid) => {
                    let frame = match self.shard.eps[eid.index()].delta.get(vpn) {
                        Some(f) => f,
                        None => {
                            // First write to this page: take a private copy
                            // of the base page (or a zero page).
                            let base = self.shard.processes[self.ctx.pid.index()]
                                .page_table
                                .get(vpn);
                            let f = match base {
                                Some(b) => self.shard.frames.alloc_copy_of(b),
                                None => self.shard.frames.alloc_zeroed(),
                            };
                            self.shard
                                .clock
                                .charge(Category::KernelIpc, self.shard.cost.page_copy);
                            self.shard.eps[eid.index()].delta.map(vpn, f);
                            f
                        }
                    };
                    self.shard.frames.write(frame, page_off, slice);
                }
            }
            offset += len;
        }
        Ok(())
    }

    /// Reads bytes from the caller's address space: the event process's
    /// private pages shadow the base process's; unmapped pages read as
    /// zeros.
    pub fn mem_read(&self, addr: u64, len: usize) -> SysResult<Vec<u8>> {
        let segments = page_segments(addr, len)?;
        let mut out = vec![0u8; len];
        let mut offset = 0;
        for (vpn, page_off, seg_len) in segments {
            let frame = self
                .ctx
                .ep
                .and_then(|eid| self.shard.eps[eid.index()].delta.get(vpn))
                .or_else(|| {
                    self.shard.processes[self.ctx.pid.index()]
                        .page_table
                        .get(vpn)
                });
            if let Some(f) = frame {
                self.shard
                    .frames
                    .read(f, page_off, &mut out[offset..offset + seg_len]);
            }
            offset += seg_len;
        }
        Ok(out)
    }

    /// Writes a little-endian `u64` (convenience for session state).
    pub fn mem_write_u64(&mut self, addr: u64, value: u64) -> SysResult<()> {
        self.mem_write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    pub fn mem_read_u64(&self, addr: u64) -> SysResult<u64> {
        let bytes = self.mem_read(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("read 8 bytes")))
    }

    /// `ep_clean`: reverts every page overlapping `[addr, addr + len)` to
    /// the base process's contents, discarding the event process's private
    /// copies (§6.1). Only valid inside an event process.
    pub fn ep_clean(&mut self, addr: u64, len: usize) -> SysResult<()> {
        let Some(eid) = self.ctx.ep else {
            return Err(SysError::NotEventProcess);
        };
        if len == 0 {
            return Err(SysError::InvalidArgument);
        }
        let start_vpn = addr / PAGE_SIZE as u64;
        let end = addr
            .checked_add(len as u64)
            .ok_or(SysError::InvalidArgument)?;
        let end_vpn = end.div_ceil(PAGE_SIZE as u64);
        for frame in self.shard.eps[eid.index()]
            .delta
            .drain_range(start_vpn, end_vpn)
        {
            self.shard.frames.release(frame);
        }
        Ok(())
    }

    /// `ep_exit`: frees all of this event process's resources — private
    /// pages, receive rights, kernel state (§6.1). Takes effect when the
    /// handler returns.
    pub fn ep_exit(&mut self) -> SysResult<()> {
        let Some(eid) = self.ctx.ep else {
            return Err(SysError::NotEventProcess);
        };
        self.shard.eps[eid.index()].alive = false;
        Ok(())
    }

    /// Number of private pages this event process currently holds (the
    /// per-session quantity of Figure 6; reading your own page count is not
    /// a cross-compartment channel).
    pub fn ep_private_pages(&self) -> usize {
        match self.ctx.ep {
            Some(eid) => self.shard.eps[eid.index()].delta.len(),
            None => 0,
        }
    }

    // ------------------------------------------------------------------
    // Processes.
    // ------------------------------------------------------------------

    /// Spawns a child process running `service`. The child inherits the
    /// caller's labels (fork-style privilege distribution, §5.3) and
    /// process environment. Forbidden inside event processes — §8 points at
    /// fork as the thing to restrict, and EPs have no fork in the paper.
    pub fn spawn(
        &mut self,
        name: &str,
        category: Category,
        service: Box<dyn Service>,
    ) -> SysResult<ProcessId> {
        if self.ctx.ep.is_some() {
            return Err(SysError::EventProcessForbidden);
        }
        Ok(self.shard.spawn_body(
            self.router,
            name,
            category,
            Body::Plain(service),
            Some(self.ctx.pid),
        ))
    }

    /// Spawns an event-process-mode child (§6).
    pub fn spawn_ep_service(
        &mut self,
        name: &str,
        category: Category,
        service: Box<dyn EpService>,
    ) -> SysResult<ProcessId> {
        if self.ctx.ep.is_some() {
            return Err(SysError::EventProcessForbidden);
        }
        Ok(self.shard.spawn_body(
            self.router,
            name,
            category,
            Body::Event(service),
            Some(self.ctx.pid),
        ))
    }

    /// Terminates the whole process (the process-wide `exit` an event
    /// process may also call, §6.1). Effective when the handler returns.
    pub fn exit_process(&mut self) {
        self.shard.processes[self.ctx.pid.index()].alive = false;
    }

    /// Charges `cycles` of simulated user-space computation to the
    /// process's accounting category (how services model their own work for
    /// Figures 7–9).
    pub fn charge(&mut self, cycles: u64) {
        let category = self.shard.processes[self.ctx.pid.index()].category;
        self.shard.clock.charge(category, cycles);
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn send_ref(&self) -> &Arc<Label> {
        match self.ctx.ep {
            Some(eid) => &self.shard.eps[eid.index()].send_label,
            None => &self.shard.processes[self.ctx.pid.index()].send_label,
        }
    }

    fn recv_ref(&self) -> &Arc<Label> {
        match self.ctx.ep {
            Some(eid) => &self.shard.eps[eid.index()].recv_label,
            None => &self.shard.processes[self.ctx.pid.index()].recv_label,
        }
    }

    fn send_slot(&mut self) -> &mut Arc<Label> {
        match self.ctx.ep {
            Some(eid) => &mut self.shard.eps[eid.index()].send_label,
            None => &mut self.shard.processes[self.ctx.pid.index()].send_label,
        }
    }

    fn recv_slot(&mut self) -> &mut Arc<Label> {
        match self.ctx.ep {
            Some(eid) => &mut self.shard.eps[eid.index()].recv_label,
            None => &mut self.shard.processes[self.ctx.pid.index()].recv_label,
        }
    }

    fn check_port_owner(&self, port: Handle) -> SysResult<()> {
        let state = self
            .shard
            .handles
            .port(port)
            .ok_or(SysError::NotPortOwner)?;
        let me = match self.ctx.ep {
            Some(eid) => PortOwner::Ep(eid),
            None => PortOwner::Process(self.ctx.pid),
        };
        if state.owner == Some(me) {
            Ok(())
        } else {
            Err(SysError::NotPortOwner)
        }
    }

    fn require_port_owner(&mut self, port: Handle) -> SysResult<()> {
        self.check_port_owner(port)
    }
}
