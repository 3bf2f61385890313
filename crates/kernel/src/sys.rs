//! The system-call surface handed to running services.
//!
//! A [`Sys`] borrows the whole [`Kernel`] as `&mut` for exactly one
//! handler activation. The kernel takes the handler's body out of its
//! process table before it builds the `Sys`, so nothing else holds a
//! borrow: a handler is the only code running, and the only writer the
//! kernel has.

use std::sync::Arc;

use asbestos_labels::{Handle, Label, Level};

use crate::cycles::Category;
use crate::delivery::keep_or_wrap;
use crate::error::{SysError, SysResult};
use crate::ids::{ExecCtx, ProcessId};
use crate::kernel::Kernel;
use crate::memory::{page_segments, PAGE_SIZE};
use crate::message::SendArgs;
use crate::process::{Body, EpService, Service};
use crate::value::Value;

/// The system-call interface for the currently executing context.
///
/// A `Sys` is constructed by the kernel for each handler invocation. When
/// the context is an event process, label operations, port creation, and
/// memory writes resolve against the event process's private state (§6.1);
/// otherwise they act on the (base) process.
pub struct Sys<'k> {
    kernel: &'k mut Kernel,
    ctx: ExecCtx,
    is_new_ep: bool,
}

impl<'k> Sys<'k> {
    pub(crate) fn new(kernel: &'k mut Kernel, ctx: ExecCtx, is_new_ep: bool) -> Sys<'k> {
        Sys {
            kernel,
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
        &self.kernel.processes[self.ctx.pid.index()].name
    }

    /// Reads an environment entry: process-local first, then global (§4's
    /// bootstrap convention for discovering service port names).
    pub fn env(&self, key: &str) -> Option<Value> {
        let p = &self.kernel.processes[self.ctx.pid.index()];
        p.env
            .get(key)
            .cloned()
            .or_else(|| self.kernel.global_env(key))
    }

    /// Sets a process-local environment entry (inherited by children).
    pub fn set_env(&mut self, key: &str, value: Value) {
        self.kernel.processes[self.ctx.pid.index()]
            .env
            .insert(key.to_string(), value);
    }

    /// Publishes an entry in the global environment. Real Asbestos
    /// bootstraps through init-provided environments; the global namespace
    /// plays that role here, with one difference: any process may
    /// overwrite any key, at any time. So trusted code reads a key only at
    /// start, once a trusted process has written it and before any
    /// untrusted process can run again, and never trusts a later read.
    pub fn publish_env(&mut self, key: &str, value: Value) {
        self.kernel.set_global_env(key, value);
    }

    // ------------------------------------------------------------------
    // Handles, ports, labels.
    // ------------------------------------------------------------------

    /// `new_handle`: allocates a fresh compartment and grants the caller
    /// `⋆` for it (§5.3: "A process initially has privilege for every
    /// handle it creates").
    pub fn new_handle(&mut self) -> Handle {
        let h = self.kernel.handles.new_handle();
        self.kernel
            .clock
            .charge(Category::KernelIpc, self.kernel.cost.new_handle);
        // `make_mut` takes a private copy only when the storage is shared
        // (with an event process or a queued message).
        let (send, _, _) = self.state_mut();
        Arc::make_mut(send).set(h, Level::Star);
        h
    }

    /// `new_port`: allocates a port with receive rights for the caller.
    ///
    /// Per Figure 4 the kernel stores `label` with `p_R(p) ← 0` applied and
    /// sets `P_S(p) ← ⋆`, so initially nobody else can send to the port.
    pub fn new_port(&mut self, label: Label) -> Handle {
        let p = self.kernel.handles.new_port(label, self.ctx.into());
        self.kernel
            .clock
            .charge(Category::KernelIpc, self.kernel.cost.new_port);
        let (send, _, ports) = self.state_mut();
        Arc::make_mut(send).set(p, Level::Star);
        ports.push(p);
        p
    }

    /// `set_port_label`: replaces a port's label verbatim (Figure 4: unlike
    /// `new_port`, this call "doesn't modify its input").
    pub fn set_port_label(&mut self, port: Handle, label: Label) -> SysResult<()> {
        self.check_port_owner(port)?;
        self.kernel
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
            .kernel
            .handles
            .port(port)
            .expect("ownership verified above")
            .label
            .clone())
    }

    /// Drops receive rights: the handle remains valid as a compartment, but
    /// messages sent to it are silently discarded.
    pub fn dissociate_port(&mut self, port: Handle) -> SysResult<()> {
        self.check_port_owner(port)?;
        self.kernel.handles.dissociate(port);
        let (_, _, ports) = self.state_mut();
        ports.retain(|&p| p != port);
        Ok(())
    }

    /// The caller's current send label `P_S`.
    pub fn send_label(&self) -> Label {
        let (send, _) = self.labels();
        Label::clone(send)
    }

    /// The caller's current receive label `P_R`.
    pub fn recv_label(&self) -> Label {
        let (_, recv) = self.labels();
        Label::clone(recv)
    }

    /// `P_S(h)`: one level of the caller's send label, read in place.
    pub fn send_level(&self, h: Handle) -> Level {
        let (send, _) = self.labels();
        send.get(h)
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
        let (slot, _, _) = self.state_mut();
        let raised = keep_or_wrap(slot, slot.join(label));
        *slot = raised;
    }

    /// Voluntarily lowers the receive label: `P_R ← P_R ⊓ label`. Making a
    /// process more restrictive requires no privilege (§5.2's targeted
    /// exclusion policies use this).
    pub fn lower_recv_label(&mut self, label: &Label) {
        let (_, slot, _) = self.state_mut();
        let lowered = keep_or_wrap(slot, slot.meet(label));
        *slot = lowered;
    }

    /// Raises the receive level for one handle; requires `P_S(h) = ⋆`
    /// (raising receive labels makes the system more permissive, §5.2, and
    /// is self-decontamination in Figure 4's terms).
    pub fn raise_recv(&mut self, h: Handle, level: Level) -> SysResult<()> {
        let (_, recv) = self.labels();
        if level <= recv.get(h) {
            return Ok(());
        }
        if !self.has_star(h) {
            return Err(SysError::PrivilegeViolation);
        }
        let (_, recv, _) = self.state_mut();
        Arc::make_mut(recv).set(h, level);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Messaging.
    // ------------------------------------------------------------------

    /// Sends a message with no optional labels.
    ///
    /// Like the real system call, success says nothing about delivery: the
    /// label checks run when the receiver is scheduled, and label failures
    /// and full queues (§8) drop the message silently (§4).
    pub fn send(&mut self, port: Handle, body: Value) -> SysResult<()> {
        self.send_args(port, body, &SendArgs::default())
    }

    /// Sends a message with optional labels (Figure 4's full `send`).
    ///
    /// The only error is [`SysError::PrivilegeViolation`], from Figure 4
    /// requirements 2 and 3: a function of the caller's own send label and
    /// arguments. Everything else is silent by design.
    pub fn send_args(&mut self, port: Handle, body: Value, args: &SendArgs) -> SysResult<()> {
        self.kernel.send_from(self.ctx, port, body, args)
    }

    // ------------------------------------------------------------------
    // Memory.
    // ------------------------------------------------------------------

    /// Writes bytes into the caller's address space. Inside an event
    /// process, touched pages become private copies (copy-on-write, §6.2).
    pub fn mem_write(&mut self, addr: u64, data: &[u8]) -> SysResult<()> {
        let mut offset = 0;
        for (vpn, page_off, len) in page_segments(addr, data.len())? {
            let slice = &data[offset..offset + len];
            match self.ctx.ep {
                None => {
                    let pid = self.ctx.pid;
                    let frame = match self.kernel.processes[pid.index()].page_table.get(vpn) {
                        Some(f) => f,
                        None => {
                            let f = self.kernel.frames.alloc_zeroed();
                            self.kernel.processes[pid.index()].page_table.map(vpn, f);
                            f
                        }
                    };
                    self.kernel.frames.write(frame, page_off, slice);
                }
                Some(eid) => {
                    let frame = match self.kernel.eps[eid.index()].delta.get(vpn) {
                        Some(f) => f,
                        None => {
                            // First write to this page: take a private copy
                            // of the base page (or a zero page).
                            let base = self.kernel.processes[self.ctx.pid.index()]
                                .page_table
                                .get(vpn);
                            let f = match base {
                                Some(b) => self.kernel.frames.alloc_copy_of(b),
                                None => self.kernel.frames.alloc_zeroed(),
                            };
                            self.kernel
                                .clock
                                .charge(Category::KernelIpc, self.kernel.cost.page_copy);
                            self.kernel.eps[eid.index()].delta.map(vpn, f);
                            f
                        }
                    };
                    self.kernel.frames.write(frame, page_off, slice);
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
        let mut out = vec![0u8; len];
        self.mem_read_into(addr, &mut out)?;
        Ok(out)
    }

    /// [`Sys::mem_read`] into the caller's buffer: fills `out` from
    /// `addr` on.
    pub fn mem_read_into(&self, addr: u64, out: &mut [u8]) -> SysResult<()> {
        let mut offset = 0;
        for (vpn, page_off, seg_len) in page_segments(addr, out.len())? {
            let frame = self
                .ctx
                .ep
                .and_then(|eid| self.kernel.eps[eid.index()].delta.get(vpn))
                .or_else(|| {
                    self.kernel.processes[self.ctx.pid.index()]
                        .page_table
                        .get(vpn)
                });
            let out = &mut out[offset..offset + seg_len];
            match frame {
                Some(f) => self.kernel.frames.read(f, page_off, out),
                None => out.fill(0),
            }
            offset += seg_len;
        }
        Ok(())
    }

    /// Writes a little-endian `u64` (convenience for session state).
    pub fn mem_write_u64(&mut self, addr: u64, value: u64) -> SysResult<()> {
        self.mem_write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    pub fn mem_read_u64(&self, addr: u64) -> SysResult<u64> {
        let mut bytes = [0u8; 8];
        self.mem_read_into(addr, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
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
        let kernel = &mut *self.kernel;
        for frame in kernel.eps[eid.index()]
            .delta
            .drain_range(start_vpn, end_vpn)
        {
            kernel.frames.release(frame);
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
        self.kernel.eps[eid.index()].alive = false;
        Ok(())
    }

    /// Number of private pages this event process currently holds (the
    /// per-session quantity of Figure 6; reading your own page count is not
    /// a cross-compartment channel).
    pub fn ep_private_pages(&self) -> usize {
        match self.ctx.ep {
            Some(eid) => self.kernel.eps[eid.index()].delta.len(),
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
        Ok(self
            .kernel
            .spawn_body(name, category, Body::Plain(service), Some(self.ctx.pid)))
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
        Ok(self
            .kernel
            .spawn_body(name, category, Body::Event(service), Some(self.ctx.pid)))
    }

    /// Terminates the whole process (the process-wide `exit` an event
    /// process may also call, §6.1). Effective when the handler returns.
    pub fn exit_process(&mut self) {
        self.kernel.processes[self.ctx.pid.index()].alive = false;
    }

    /// Charges `cycles` of simulated user-space computation to the
    /// process's accounting category (how services model their own work for
    /// Figures 7–9).
    pub fn charge(&mut self, cycles: u64) {
        let category = self.kernel.processes[self.ctx.pid.index()].category;
        self.kernel.clock.charge(category, cycles);
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// The caller's labels ([`ExecCtx::labels`]).
    fn labels(&self) -> (&Arc<Label>, &Arc<Label>) {
        self.ctx.labels(&self.kernel.processes, &self.kernel.eps)
    }

    /// The caller's labels and receive rights, to write.
    fn state_mut(&mut self) -> (&mut Arc<Label>, &mut Arc<Label>, &mut Vec<Handle>) {
        self.ctx
            .state_mut(&mut self.kernel.processes, &mut self.kernel.eps)
    }

    fn check_port_owner(&self, port: Handle) -> SysResult<()> {
        let state = self
            .kernel
            .handles
            .port(port)
            .ok_or(SysError::NotPortOwner)?;
        if state.owner == self.ctx.into() {
            Ok(())
        } else {
            Err(SysError::NotPortOwner)
        }
    }
}
