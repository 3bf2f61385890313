//! The federation's `Forward` counter.
//!
//! Nothing between two kernels routes: a port's value names the kernel
//! whose cipher lane minted it, so the sending kernel's router parks each
//! remote send with its home and the gateway writes it on the link there
//! ([`crate::gateway`]). What is left of the switch is the count of
//! `Forward`s sent, which [`Cluster::switch`](crate::Cluster::switch)
//! reads.

/// The cluster's `Forward` counter.
#[derive(Debug, Default)]
pub struct Switch {
    /// `Forward`s the gateways wrote on a link.
    pub forwarded: u64,
}
