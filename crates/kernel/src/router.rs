//! Where a send goes.
//!
//! A message goes to the kernel whose cipher lane minted its port, which
//! [`Kernel::route`] computes from the port's value alone: no port-table
//! entry is read, and a handle's home never changes. A message that stays
//! joins this kernel's mailboxes; one that leaves is parked on the egress
//! queue of a federated kernel (see `crates/cluster`) until the gateway
//! drains it with [`Kernel::take_remote_egress`].

use asbestos_labels::Handle;

use crate::kernel::Kernel;

/// Where a message goes: the kernel whose cipher lane minted its port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// To this kernel's own mailboxes.
    Local,
    /// Out through egress, to this kernel.
    Egress(usize),
}

impl Kernel {
    /// Where a message to `port` goes, from its value alone. Kernel `k`
    /// of `N` mints from lane `k` of `N`, so `lane_of(port)` is the
    /// kernel that minted it:
    ///
    /// * it stays here iff that is this kernel — to its owner while it
    ///   is a live port; a dead port, a compartment or a value no one
    ///   minted drops `NoSuchPort` here;
    /// * otherwise it leaves through egress for that kernel.
    ///
    /// A kernel with one lane routes everything locally and decrypts
    /// nothing.
    pub(crate) fn route(&self, port: Handle) -> Route {
        let alloc = self.handles.allocator();
        let lane = alloc.lane_of(port);
        if lane == alloc.lane() {
            Route::Local
        } else {
            Route::Egress(lane as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::CostModel;
    use crate::handle_table::HandleTable;
    use crate::value::Value;

    const SEED: u64 = 1;

    /// Kernel `slot` of a federation of `kernels` kernels.
    fn kernel(slot: usize, kernels: usize) -> Kernel {
        Kernel::with_cluster_slot(SEED, CostModel::default(), 0, slot, kernels)
    }

    /// Routing reads no vnode. A kernel that minted nothing keeps each
    /// handle an identically partitioned table minted for it, and sends
    /// every other one out to the kernel that minted it.
    #[test]
    fn every_minted_handle_routes_to_its_minting_lane() {
        for kernels in [1, 2, 3, 4] {
            for slot in 0..kernels {
                let r = kernel(slot, kernels);
                for k in 0..kernels {
                    let mut minter = HandleTable::with_partition(SEED, k as u64, kernels as u64);
                    for _ in 0..6 {
                        let h = minter.new_handle();
                        let want = if k == slot {
                            Route::Local
                        } else {
                            Route::Egress(k)
                        };
                        assert_eq!(r.route(h), want, "{h:?}: {kernels} kernels, {k} → {slot}");
                    }
                }
                assert_eq!(
                    r.handle_table().allocator().allocated(),
                    0,
                    "the routing kernel minted nothing"
                );
            }
        }
    }

    #[test]
    fn env_roundtrip() {
        let mut k = kernel(0, 1);
        assert_eq!(k.global_env("x"), None);
        k.set_global_env("x", Value::U64(9));
        assert_eq!(k.global_env("x"), Some(Value::U64(9)));
        assert!(k.take_env_log().is_empty(), "a plain kernel logs nothing");
    }

    /// A federated kernel logs its own writes, in order, and never one it
    /// applied from the wire.
    #[test]
    fn only_local_writes_enter_the_env_log() {
        let mut k = kernel(0, 2);
        k.set_global_env("x", Value::U64(1));
        k.apply_remote_env("y", Value::U64(2));
        k.set_global_env("x", Value::U64(3));
        assert_eq!(
            k.take_env_log(),
            [("x".into(), Value::U64(1)), ("x".into(), Value::U64(3))]
        );
        assert!(k.take_env_log().is_empty());
        assert_eq!(k.global_env("y"), Some(Value::U64(2)));
    }
}
