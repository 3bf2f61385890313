//! System-call errors.
//!
//! Asbestos deliberately reports very little through `send` (§4): label
//! failures at delivery time are silent, because a failure/success signal
//! modulated by label changes would be a storage channel, and so are drops
//! at a full queue (§8), whose occupancy other senders control. `send`'s
//! only error is [`SysError::PrivilegeViolation`]. The errors here
//! are only those a real kernel could report without leaking information —
//! they depend exclusively on the *caller's own* state and arguments.

use std::fmt;

/// An error returned by a system call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SysError {
    /// The calling process lacks receive rights for the port it tried to
    /// manipulate (`set_port_label`, `dissociate_port`).
    NotPortOwner,
    /// A label argument requires `⋆` privilege the caller does not hold
    /// (Figure 4 requirements 2 and 3 — these depend only on the caller's
    /// own send label, so reporting them leaks nothing).
    PrivilegeViolation,
    /// The operation is only valid inside an event process
    /// (`ep_clean`, `ep_exit`).
    NotEventProcess,
    /// The operation is not valid inside an event process (e.g. spawning).
    EventProcessForbidden,
    /// A malformed argument (unaligned memory range, zero-length region).
    InvalidArgument,
    /// The simulator's configured resource limit was exceeded
    /// (§8: "Asbestos does not yet deal gracefully with certain forms of
    /// resource exhaustion" — we at least make it explicit).
    ResourceExhausted,
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SysError::NotPortOwner => "caller lacks receive rights for port",
            SysError::PrivilegeViolation => "label argument requires ⋆ privilege",
            SysError::NotEventProcess => "operation requires event-process context",
            SysError::EventProcessForbidden => "operation forbidden in event-process context",
            SysError::InvalidArgument => "invalid argument",
            SysError::ResourceExhausted => "resource limit exceeded",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SysError {}

/// Result alias for system calls.
pub type SysResult<T> = Result<T, SysError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SysError::NotPortOwner
            .to_string()
            .contains("receive rights"));
        assert!(SysError::PrivilegeViolation
            .to_string()
            .contains("privilege"));
    }
}
