//! Crash-injection sweeps: the recovery contract under adversarial
//! failure points.
//!
//! The pinned property is the §7.5 durability claim at its strongest:
//! for a WAL torn at **every possible byte offset** — not just frame
//! boundaries — recovery yields exactly some committed prefix of the
//! acknowledged batches, never a torn suffix, never a record from a
//! half-committed batch.
//!
//! `ASBESTOS_CRASH_SWEEP_SEED` (CI sets it per run) reseeds the
//! randomized sections — batch shapes and bit-flip positions — so the
//! sweep walks a different corner of the space every run while staying
//! reproducible from the printed seed.

use asbestos_store::{BlockDev, FileDev, MemDev, Store};

/// Deterministic-but-reseedable PRNG (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn sweep_seed() -> u64 {
    std::env::var("ASBESTOS_CRASH_SWEEP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xA5BE_5705)
}

fn record(batch: usize, i: usize) -> Vec<u8> {
    format!("batch-{batch}-record-{i}").into_bytes()
}

/// Builds a store with `batches` committed groups of varying size and
/// returns the device plus the records of each batch, in commit order.
fn build(seed: u64, batches: usize) -> (MemDev, Vec<Vec<Vec<u8>>>) {
    let dev = MemDev::new();
    let (mut store, _) = Store::open(Box::new(dev.clone()));
    let mut rng = Rng(seed);
    let mut committed = Vec::new();
    for b in 0..batches {
        let n = 1 + rng.below(5) as usize;
        let mut batch = Vec::new();
        for i in 0..n {
            let r = record(b, i);
            store.append(&r);
            batch.push(r);
        }
        store.commit();
        committed.push(batch);
    }
    (dev, committed)
}

/// The committed-prefix check: `records` must equal the concatenation of
/// the first `k` batches for some `k`.
fn assert_committed_prefix(records: &[Vec<u8>], batches: &[Vec<Vec<u8>>], context: &str) {
    let mut offset = 0;
    for (index, batch) in batches.iter().enumerate() {
        if offset + batch.len() > records.len() {
            break;
        }
        assert_eq!(
            &records[offset..offset + batch.len()],
            batch.as_slice(),
            "{context}: batch {index} corrupted"
        );
        offset += batch.len();
    }
    assert_eq!(
        offset,
        records.len(),
        "{context}: recovered a partial batch (atomicity violated)"
    );
}

#[test]
fn crash_at_every_byte_offset_recovers_a_committed_prefix() {
    let seed = sweep_seed();
    println!("crash sweep seed: {seed}");
    let (dev, batches) = build(seed, 8);
    let wal = dev.dump("wal.00000000");
    assert!(!wal.is_empty());
    for cut in 0..=wal.len() {
        let torn = dev.fork();
        torn.truncate_object("wal.00000000", cut);
        let (_store, recovery) = Store::open(Box::new(torn));
        assert_committed_prefix(&recovery.records, &batches, &format!("cut at byte {cut}"));
    }
    // The untouched device recovers everything.
    let (_store, recovery) = Store::open(Box::new(dev));
    let all: Vec<Vec<u8>> = batches.iter().flatten().cloned().collect();
    assert_eq!(recovery.records, all);
}

#[test]
fn torn_tail_writes_recover_a_committed_prefix() {
    let seed = sweep_seed() ^ 0x7047;
    let (dev, batches) = build(seed, 6);
    let (mut store, _) = Store::open(Box::new(dev.clone()));
    // An in-flight batch that never commits, torn at every length.
    store.append(b"in-flight-1");
    store.append(b"in-flight-2");
    let unsynced = dev.dump(&store.log_name()).len();
    for torn_extra in 0..=unsynced {
        let copy = dev.fork();
        copy.crash(torn_extra);
        let (_s, recovery) = Store::open(Box::new(copy));
        assert!(
            !recovery.records.iter().any(|r| r.starts_with(b"in-flight")),
            "uncommitted record leaked at torn_extra={torn_extra}"
        );
        assert_committed_prefix(&recovery.records, &batches, &format!("torn {torn_extra}"));
    }
}

#[test]
fn random_bit_rot_never_yields_a_non_prefix() {
    let mut rng = Rng(sweep_seed() ^ 0xB17F);
    let (dev, batches) = build(rng.next(), 6);
    let wal = dev.dump("wal.00000000");
    for _ in 0..200 {
        let byte = rng.below(wal.len() as u64) as usize;
        let bit = (rng.next() % 8) as u8;
        let rotted = dev.fork();
        rotted.flip_bit("wal.00000000", byte, bit);
        let (_store, recovery) = Store::open(Box::new(rotted));
        // A flip may shorten what recovers (scan stops at the damage) or
        // hide a commit marker, but the surviving records must still be
        // an intact batch prefix — a flipped length field must never
        // cause frames to be misparsed into plausible garbage.
        assert_committed_prefix(
            &recovery.records,
            &batches,
            &format!("flip byte {byte} bit {bit}"),
        );
    }
}

#[test]
fn crash_during_compaction_never_loses_committed_state() {
    use asbestos_store::{encode_frame, FrameKind};
    let (dev, batches) = build(sweep_seed() ^ 0xC0DE, 5);
    let all: Vec<Vec<u8>> = batches.iter().flatten().cloned().collect();
    // Compaction's crash window: the snapshot object is mid-write and the
    // log it replaces has NOT been pruned yet (pruning happens only
    // after the snapshot syncs). Simulate the torn `put` at every length.
    let snap_frame = encode_frame(FrameKind::Snapshot, b"app-snapshot-bytes");
    for cut in 0..=snap_frame.len() {
        let torn = dev.fork();
        let mut handle: Box<dyn BlockDev> = Box::new(torn.clone());
        handle.put("snap.00000001", &snap_frame[..cut]);
        handle.sync();
        let (_s, r) = Store::open(Box::new(torn));
        if cut == snap_frame.len() {
            // Snapshot became durable: it covers every committed record.
            assert_eq!(r.snapshot.as_deref(), Some(&b"app-snapshot-bytes"[..]));
            assert!(r.records.is_empty());
        } else {
            // Torn snapshot is rejected; the uncompacted WAL still holds
            // everything that was ever acknowledged.
            assert!(r.snapshot.is_none(), "cut {cut} accepted a torn snapshot");
            assert_eq!(r.records, all, "cut {cut} lost committed records");
        }
    }
}

/// A log that follows a snapshot, torn at every byte offset: recovery
/// must return the snapshot plus a committed prefix of the batches logged
/// after it — never a record from the log the snapshot replaced, which a
/// crash between the snapshot's sync and the prune leaves on the device.
#[test]
fn post_snapshot_log_crash_sweep() {
    let dev = MemDev::new();
    let (mut store, _) = Store::open(Box::new(dev.clone()));
    let mut rng = Rng(sweep_seed() ^ 0x5A4F);
    let mut replaced = None;
    let mut batches = Vec::new();
    for b in 0..10 {
        let batch: Vec<Vec<u8>> = (0..1 + rng.below(4) as usize)
            .map(|i| record(b, i))
            .collect();
        for r in &batch {
            store.append(r);
        }
        store.commit();
        if b == 3 {
            replaced = Some((store.log_name(), dev.dump(&store.log_name())));
            store.compact(b"snapshot-after-batch-3");
        } else if replaced.is_some() {
            batches.push(batch);
        }
    }
    let (old_log, old_bytes) = replaced.unwrap();
    let log = store.log_name();
    assert_ne!(log, old_log);
    drop(store);
    let tail = dev.dump(&log);
    let all: Vec<Vec<u8>> = batches.iter().flatten().cloned().collect();
    for cut in 0..=tail.len() {
        let torn = dev.fork();
        torn.truncate_object(&log, cut);
        let mut handle: Box<dyn BlockDev> = Box::new(torn.clone());
        handle.put(&old_log, &old_bytes);
        handle.sync();
        let (_s, r) = Store::open(Box::new(torn));
        let context = format!("post-snapshot log cut {cut}");
        assert_eq!(
            r.snapshot.as_deref(),
            Some(&b"snapshot-after-batch-3"[..]),
            "{context}"
        );
        assert_committed_prefix(&r.records, &batches, &context);
        if cut == tail.len() {
            assert_eq!(r.records, all, "{context}: the intact log recovers whole");
        }
    }
}

#[test]
fn filedev_survives_real_reopen() {
    let dev = FileDev::temp();
    let (mut store, recovery) = Store::open(dev.clone_dev());
    assert!(recovery.records.is_empty());
    let epoch1 = recovery.boot_epoch;
    store.append(b"file-record-a");
    store.append(b"file-record-b");
    store.commit();
    store.append(b"never-committed");
    drop(store);
    let (mut store, recovery) = Store::open(dev.clone_dev());
    assert_eq!(
        recovery.records,
        vec![b"file-record-a".to_vec(), b"file-record-b".to_vec()]
    );
    assert_eq!(recovery.boot_epoch, epoch1 + 1);
    assert_eq!(recovery.dropped_uncommitted, 1);
    store.compact(b"file-snap");
    drop(store);
    let (_store, recovery) = Store::open(dev.clone_dev());
    assert_eq!(recovery.snapshot.as_deref(), Some(&b"file-snap"[..]));
    assert!(recovery.records.is_empty());
    dev.destroy();
}
