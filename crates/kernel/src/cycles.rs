//! Virtual time: the cycle clock, cost model, and per-category accounting.
//!
//! The paper's testbed is a 2.8 GHz Pentium 4; Figure 9 reports the average
//! cost of each system component in thousands of CPU cycles per connection.
//! Our substitute for that hardware is a virtual cycle clock: every kernel
//! operation and every simulated user-space computation charges cycles to an
//! accounting category, so the Figure 9 breakdown (OKWS / Network / Kernel
//! IPC / OKDB / Other) falls directly out of the accounting.
//!
//! The [`CostModel`] constants are calibrated once against the paper's
//! single-session anchor points (see EXPERIMENTS.md) and then left fixed for
//! every sweep; all scaling behaviour (label sizes, session counts) comes
//! from the implementation.

/// Simulated CPU frequency, matching the paper's 2.8 GHz Pentium 4 (§9).
pub const CYCLES_PER_SEC: u64 = 2_800_000_000;

/// Accounting categories matching Figure 9's breakdown.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Category {
    /// Time spent in OKWS user code (ok-demux, workers, launcher).
    Okws,
    /// Time spent in netd and the network substrate.
    Network,
    /// Time spent in `send`/`recv` processing and label operations.
    KernelIpc,
    /// Time spent in the database path (idd lookups, ok-dbproxy, SQL engine).
    Okdb,
    /// Everything else (file server, idle bookkeeping, test drivers).
    Other,
}

impl Category {
    /// All categories in Figure 9 order.
    pub const ALL: [Category; 5] = [
        Category::Okdb,
        Category::Okws,
        Category::KernelIpc,
        Category::Network,
        Category::Other,
    ];

    /// Display name as used in Figure 9.
    pub fn name(self) -> &'static str {
        match self {
            Category::Okws => "OKWS",
            Category::Network => "Network",
            Category::KernelIpc => "Kernel IPC",
            Category::Okdb => "OKDB",
            Category::Other => "Other",
        }
    }
}

/// Cycle costs for kernel operations.
///
/// Label-related costs are *per explicit label entry visited*, which makes
/// every label operation linear in label size — the property responsible for
/// the paper's linear throughput degradation as cached sessions accumulate
/// (§9.3: "As expected, linear scaling factors in our label implementation
/// lead to linear performance degradation as labels increase in size").
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Fixed cost of enqueueing a message (syscall entry, copy setup).
    pub send_base: u64,
    /// Fixed cost of a delivery attempt (queue pop, vnode lookup).
    pub recv_base: u64,
    /// Cost per label entry visited during checks and contamination.
    pub label_entry: u64,
    /// Cost per byte of message payload copied.
    pub msg_byte: u64,
    /// Cost of switching between different processes.
    pub context_switch: u64,
    /// Cost of switching to or creating an event process within a process
    /// (restoring labels, page-table deltas); much cheaper than a full
    /// context switch (§6.2).
    pub ep_switch: u64,
    /// Cost of creating an event process.
    pub ep_create: u64,
    /// Cost of copying a page for copy-on-write.
    pub page_copy: u64,
    /// Cost of allocating a handle (cipher walk included).
    pub new_handle: u64,
    /// Cost of creating a port (handle + vnode setup).
    pub new_port: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        // Calibrated against §9's anchor points; see EXPERIMENTS.md for the
        // derivation. Roughly: an idle-system OKWS request performs ~30 IPCs
        // and should land near 1 750 Kcycles/connection in total with the
        // service costs included.
        CostModel {
            send_base: 4_000,
            recv_base: 5_000,
            label_entry: 2,
            msg_byte: 4,
            context_switch: 6_000,
            ep_switch: 1_200,
            ep_create: 9_000,
            page_copy: 3_000,
            new_handle: 2_500,
            new_port: 4_000,
        }
    }
}

/// The virtual clock plus per-category totals.
#[derive(Clone, Debug, Default)]
pub struct CycleClock {
    now: u64,
    totals: [u64; 5],
}

impl CycleClock {
    /// Creates a clock at time zero with empty totals.
    pub fn new() -> CycleClock {
        CycleClock::default()
    }

    /// Current virtual time in cycles.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock, attributing the cycles to `category`.
    #[inline]
    pub fn charge(&mut self, category: Category, cycles: u64) {
        self.now += cycles;
        self.totals[Self::slot(category)] += cycles;
    }

    /// Total cycles attributed to `category` so far.
    #[inline]
    pub fn total(&self, category: Category) -> u64 {
        self.totals[Self::slot(category)]
    }

    /// Adds another clock's time and totals into this one (shard merging:
    /// the merged `now` is total cycles consumed across all shards).
    pub(crate) fn absorb(&mut self, other: &CycleClock) {
        self.now += other.now;
        for (slot, total) in self.totals.iter_mut().zip(other.totals.iter()) {
            *slot += total;
        }
    }

    /// Snapshot of all category totals, in [`Category::ALL`] order.
    pub fn snapshot(&self) -> CycleSnapshot {
        CycleSnapshot {
            now: self.now,
            totals: self.totals,
        }
    }

    fn slot(category: Category) -> usize {
        match category {
            Category::Okws => 0,
            Category::Network => 1,
            Category::KernelIpc => 2,
            Category::Okdb => 3,
            Category::Other => 4,
        }
    }
}

/// A point-in-time copy of the clock, for interval measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleSnapshot {
    now: u64,
    totals: [u64; 5],
}

impl CycleSnapshot {
    /// Virtual time at the snapshot.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Category total at the snapshot.
    pub fn total(&self, category: Category) -> u64 {
        self.totals[CycleClock::slot(category)]
    }

    /// Per-category difference `later - self`.
    pub fn delta(&self, later: &CycleSnapshot) -> Vec<(Category, u64)> {
        Category::ALL
            .iter()
            .map(|&c| (c, later.total(c) - self.total(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut clk = CycleClock::new();
        clk.charge(Category::KernelIpc, 100);
        clk.charge(Category::Okws, 50);
        clk.charge(Category::KernelIpc, 10);
        assert_eq!(clk.now(), 160);
        assert_eq!(clk.total(Category::KernelIpc), 110);
        assert_eq!(clk.total(Category::Okws), 50);
        assert_eq!(clk.total(Category::Okdb), 0);
    }

    #[test]
    fn snapshot_deltas() {
        let mut clk = CycleClock::new();
        clk.charge(Category::Network, 5);
        let before = clk.snapshot();
        clk.charge(Category::Network, 7);
        clk.charge(Category::Other, 2);
        let after = clk.snapshot();
        let delta = before.delta(&after);
        assert!(delta.contains(&(Category::Network, 7)));
        assert!(delta.contains(&(Category::Other, 2)));
        assert!(delta.contains(&(Category::Okws, 0)));
    }

    #[test]
    fn categories_have_figure9_names() {
        let names: Vec<_> = Category::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["OKDB", "OKWS", "Kernel IPC", "Network", "Other"]);
    }
}
