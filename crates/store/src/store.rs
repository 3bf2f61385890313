//! The durable store: one WAL per snapshot + compaction + boot epoch.
//!
//! A [`Store`] owns a [`BlockDev`] and lays it out as:
//!
//! * `epoch.0` / `epoch.1` — the boot counter, one [`FrameKind::Epoch`]
//!   frame in dual slots (epoch `e` lives in slot `e % 2`, so a torn
//!   bump can never damage the surviving epoch). [`Store::open`] bumps
//!   it durably before anything else, so every recovery is a new boot
//!   epoch (§5.1: handle values are unique *since boot*; the epoch is
//!   what the kernel folds into its handle cipher so a new boot can
//!   never re-mint an old boot's handles).
//! * `snap.NNNNNNNN` — compacted snapshots (none until the first
//!   compaction; `snap.0` is implicitly the empty state).
//! * `wal.NNNNNNNN` — the log written since `snap.N`. Records append to
//!   it; a [`FrameKind::Commit`] marker plus one device sync makes the
//!   whole batch durable (group commit). Compaction is the only
//!   rotation: it writes `snap.N+1` durably *before* pruning `snap.N`
//!   and `wal.N`, so a crash at any point leaves at least one valid
//!   (snapshot, log) pair.
//!
//! **Recovery contract.** [`Store::open`] returns the newest intact
//! snapshot plus every record of its log covered by a commit marker, in
//! append order — and nothing else. Records after the last commit marker
//! were never acknowledged and are discarded (the tail is truncated so
//! new appends land on a clean boundary). The crash suites pin the
//! stronger property: truncating the device at *any* byte offset
//! recovers exactly some committed prefix.

use crate::blockdev::BlockDev;
use crate::wal::{decode_single, encode_commit, encode_frame, scan_committed, FrameKind};

/// Default compaction threshold (committed bytes of the live log).
pub const DEFAULT_COMPACT_THRESHOLD: usize = 256 * 1024;

/// Dual-slot boot-epoch objects. The counter alternates slots (epoch `e`
/// lives in slot `e % 2`), so the in-place overwrite of a bump can only
/// ever tear the slot the *previous* epoch does not occupy: a torn bump
/// leaves the old epoch intact and the counter monotone. A single-slot
/// design would regress to epoch 0 on a torn write — and re-mint a dead
/// boot's entire handle space.
const EPOCH_SLOTS: [&str; 2] = ["epoch.0", "epoch.1"];

fn log_name(index: u64) -> String {
    format!("wal.{index:08}")
}

fn snap_name(index: u64) -> String {
    format!("snap.{index:08}")
}

fn parse_index(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

/// What [`Store::open`] recovered from the device.
pub struct Recovery {
    /// The newest intact snapshot payload, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Committed records logged since that snapshot, in append order.
    pub records: Vec<Vec<u8>>,
    /// The new boot epoch (already bumped and persisted).
    pub boot_epoch: u64,
    /// Intact-but-uncommitted records that were discarded.
    pub dropped_uncommitted: usize,
    /// Whether a torn tail was found (and truncated away).
    pub torn_tail: bool,
}

/// A write-ahead-logged store over a [`BlockDev`].
pub struct Store {
    dev: Box<dyn BlockDev>,
    boot_epoch: u64,
    /// Index of the newest snapshot, and so of the live log.
    log: u64,
    /// Bytes of the live log (compaction trigger).
    wal_bytes: usize,
    /// Records appended since the last commit marker.
    pending: usize,
    /// Commits issued over this store's lifetime.
    commits: u64,
    /// Sequence number the next commit marker will carry.
    commit_seq: u64,
    compact_threshold: usize,
}

impl Store {
    /// Opens (and recovers) a store, bumping the boot epoch durably.
    pub fn open(dev: Box<dyn BlockDev>) -> (Store, Recovery) {
        let mut dev = dev;

        // Bump the boot epoch first: even a recovery that finds nothing
        // is a new boot. The bump goes to the slot the previous epoch
        // does NOT occupy and is synced immediately, so it is durable
        // before this boot mints anything — and a torn write can only
        // damage the new slot, never the surviving old epoch.
        let last_epoch = Store::peek_epoch(dev.as_ref());
        let boot_epoch = last_epoch + 1;
        dev.put(
            EPOCH_SLOTS[(boot_epoch % 2) as usize],
            &encode_frame(FrameKind::Epoch, &boot_epoch.to_le_bytes()),
        );
        dev.sync();

        // Newest intact snapshot wins; torn ones (crash mid-compaction)
        // are skipped — the previous snapshot plus its log are still on
        // the device because pruning happens only after the new snapshot
        // is durable.
        let mut snap_indexes: Vec<u64> = dev
            .list()
            .iter()
            .filter_map(|n| parse_index(n, "snap."))
            .collect();
        snap_indexes.sort_unstable();
        let (log, snapshot) = snap_indexes
            .iter()
            .rev()
            .find_map(|&idx| {
                dev.read(&snap_name(idx))
                    .and_then(|b| decode_single(&b, FrameKind::Snapshot))
                    .map(|body| (idx, Some(body)))
            })
            .unwrap_or((0, None));

        // Replay that snapshot's log up to its last commit marker, and
        // truncate it there so future appends land on a clean frame
        // boundary — and so a *later* commit marker can never
        // retroactively commit this dead tail.
        let bytes = dev.read(&log_name(log)).unwrap_or_default();
        let scan = scan_committed(&bytes);
        if scan.committed_len < bytes.len() {
            dev.truncate(&log_name(log), scan.committed_len as u64);
        }
        dev.sync();

        let store = Store {
            dev,
            boot_epoch,
            log,
            wal_bytes: scan.committed_len,
            pending: 0,
            commits: 0,
            commit_seq: scan.next_seq.unwrap_or(0),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
        };
        let recovery = Recovery {
            snapshot,
            records: scan.records,
            boot_epoch,
            dropped_uncommitted: scan.uncommitted,
            torn_tail: scan.torn,
        };
        (store, recovery)
    }

    /// Reads the last persisted boot epoch without bumping it (0 when the
    /// device has never been opened). Takes the highest intact slot, so
    /// a bump torn mid-write falls back to the previous epoch instead of
    /// resetting the counter.
    pub fn peek_epoch(dev: &dyn BlockDev) -> u64 {
        EPOCH_SLOTS
            .iter()
            .filter_map(|slot| {
                dev.read(slot)
                    .and_then(|b| decode_single(&b, FrameKind::Epoch))
                    .and_then(|body| body.try_into().ok().map(u64::from_le_bytes))
            })
            .max()
            .unwrap_or(0)
    }

    /// Appends one record to the log. Not durable until the next
    /// [`Store::commit`].
    pub fn append(&mut self, record: &[u8]) {
        let frame = encode_frame(FrameKind::Record, record);
        self.dev.append(&log_name(self.log), &frame);
        self.wal_bytes += frame.len();
        self.pending += 1;
    }

    /// Group commit: writes a commit marker and syncs the device, making
    /// every record appended since the last commit durable in one sync.
    /// A no-op when nothing is pending.
    pub fn commit(&mut self) {
        if self.pending == 0 {
            return;
        }
        let marker = encode_commit(self.commit_seq);
        self.commit_seq += 1;
        self.dev.append(&log_name(self.log), &marker);
        self.wal_bytes += marker.len();
        self.dev.sync();
        self.pending = 0;
        self.commits += 1;
    }

    /// Whether the log has outgrown the compaction threshold.
    pub fn needs_compaction(&self) -> bool {
        self.wal_bytes >= self.compact_threshold
    }

    /// Compacts: `snapshot` captures the application state as of every
    /// committed record; after it is durable, the snapshot and log it
    /// replaces are pruned and a fresh log begins. Pending (uncommitted)
    /// records are committed first so the snapshot boundary is well
    /// defined.
    pub fn compact(&mut self, snapshot: &[u8]) {
        self.commit();
        let next = self.log + 1;
        self.dev.put(
            &snap_name(next),
            &encode_frame(FrameKind::Snapshot, snapshot),
        );
        self.dev.sync();
        // The new snapshot is durable; everything older is garbage.
        for name in self.dev.list() {
            let index = parse_index(&name, "wal.").or_else(|| parse_index(&name, "snap."));
            if index.is_some_and(|idx| idx < next) {
                self.dev.remove(&name);
            }
        }
        self.dev.sync();
        self.log = next;
        self.wal_bytes = 0;
    }

    /// Sets the compaction threshold.
    pub fn set_compact_threshold(&mut self, bytes: usize) {
        self.compact_threshold = bytes.max(1);
    }

    /// The boot epoch this store was opened under.
    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch
    }

    /// Records appended but not yet committed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Commits issued by this store instance.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The live log's object name (crash-sweep observability).
    pub fn log_name(&self) -> String {
        log_name(self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::MemDev;

    fn rec(i: u32) -> Vec<u8> {
        format!("record-{i}").into_bytes()
    }

    #[test]
    fn empty_device_recovers_empty_and_bumps_epoch() {
        let dev = MemDev::new();
        let (store, recovery) = Store::open(Box::new(dev.clone()));
        assert!(recovery.snapshot.is_none());
        assert!(recovery.records.is_empty());
        assert_eq!(recovery.boot_epoch, 1);
        assert_eq!(store.boot_epoch(), 1);
        drop(store);
        let (_store, recovery) = Store::open(Box::new(dev));
        assert_eq!(recovery.boot_epoch, 2);
    }

    #[test]
    fn torn_epoch_bump_never_regresses_the_counter() {
        // Regression: a single-slot epoch overwritten in place would
        // reset to 0 when the bump tears — and the next boot would
        // re-mint boot 1's entire handle space. The dual-slot scheme
        // must keep the counter monotone under a torn (unsynced) bump.
        let dev = MemDev::new();
        for _ in 0..3 {
            let (_s, _r) = Store::open(Box::new(dev.clone()));
        }
        assert_eq!(Store::peek_epoch(&dev), 3);
        // Boot 4 tears its epoch write: simulate the put landing and the
        // crash discarding it before the sync.
        let torn = dev.fork();
        {
            let mut handle: Box<dyn crate::blockdev::BlockDev> = Box::new(torn.clone());
            handle.put(
                "epoch.0",
                &crate::wal::encode_frame(crate::wal::FrameKind::Epoch, &4u64.to_le_bytes())[..5],
            );
            handle.sync();
        }
        assert_eq!(
            Store::peek_epoch(&torn),
            3,
            "torn bump falls back to the intact slot"
        );
        let (_s, recovery) = Store::open(Box::new(torn));
        assert_eq!(recovery.boot_epoch, 4, "counter is monotone, never reset");
    }

    #[test]
    fn committed_records_survive_crash_uncommitted_do_not() {
        let dev = MemDev::new();
        let (mut store, _) = Store::open(Box::new(dev.clone()));
        store.append(&rec(0));
        store.append(&rec(1));
        store.commit();
        store.append(&rec(2)); // never committed
        assert_eq!(store.pending(), 1);
        dev.crash(0);
        let (_s2, recovery) = Store::open(Box::new(dev));
        assert_eq!(recovery.records, vec![rec(0), rec(1)]);
        assert_eq!(recovery.dropped_uncommitted, 0, "crash discarded it");
    }

    #[test]
    fn uncommitted_tail_on_clean_device_is_dropped_and_truncated() {
        let dev = MemDev::new();
        let (mut store, _) = Store::open(Box::new(dev.clone()));
        store.append(&rec(0));
        store.commit();
        store.append(&rec(1));
        // Simulate the bytes being durable but the commit marker missing
        // (e.g. crash between append-sync of a later commit's batch).
        dev.clone().sync();
        let (_s2, recovery) = Store::open(Box::new(dev.clone()));
        assert_eq!(recovery.records, vec![rec(0)]);
        assert_eq!(recovery.dropped_uncommitted, 1);
        // Third boot: the dead tail was truncated, so it cannot be
        // resurrected by a later commit marker.
        let (mut s3, _) = Store::open(Box::new(dev.clone()));
        s3.append(&rec(9));
        s3.commit();
        let (_s4, recovery) = Store::open(Box::new(dev));
        assert_eq!(recovery.records, vec![rec(0), rec(9)]);
    }

    #[test]
    fn compaction_prunes_and_recovery_uses_snapshot() {
        let dev = MemDev::new();
        let (mut store, _) = Store::open(Box::new(dev.clone()));
        for i in 0..20 {
            store.append(&rec(i));
            store.commit();
        }
        store.compact(b"SNAPSHOT-AT-20");
        store.append(&rec(20));
        store.commit();
        let segs = dev.list();
        assert_eq!(
            segs.iter().filter(|n| n.starts_with("snap.")).count(),
            1,
            "old snapshots pruned"
        );
        assert_eq!(
            segs.iter().filter(|n| n.starts_with("wal.")).count(),
            1,
            "the replaced log was pruned"
        );
        let (_s2, recovery) = Store::open(Box::new(dev));
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"SNAPSHOT-AT-20"[..]));
        assert_eq!(recovery.records, vec![rec(20)]);
    }

    #[test]
    fn torn_snapshot_falls_back_to_previous_state() {
        let dev = MemDev::new();
        let (mut store, _) = Store::open(Box::new(dev.clone()));
        for i in 0..3 {
            store.append(&rec(i));
        }
        store.commit();
        store.compact(b"SNAP-A");
        store.append(&rec(3));
        store.commit();
        // A second compaction whose snapshot write tears mid-flight:
        // simulate by writing a corrupt newer snap object directly.
        let next = b"garbage-not-a-frame".to_vec();
        let mut handle = dev.clone();
        use crate::blockdev::BlockDev as _;
        handle.put("snap.00000099", &next);
        handle.sync();
        let (_s2, recovery) = Store::open(Box::new(dev));
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"SNAP-A"[..]));
        assert_eq!(recovery.records, vec![rec(3)]);
    }

    #[test]
    fn group_commit_amortizes_syncs() {
        let dev = MemDev::new();
        let (mut store, _) = Store::open(Box::new(dev.clone()));
        let base = dev.sync_count();
        for batch in 0..4 {
            for i in 0..8 {
                store.append(&rec(batch * 8 + i));
            }
            store.commit();
        }
        assert_eq!(dev.sync_count() - base, 4, "one sync per commit batch");
        assert_eq!(store.commits(), 4);
    }
}
