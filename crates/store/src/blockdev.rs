//! Block devices: the persistence boundary the WAL writes through.
//!
//! A [`BlockDev`] is a tiny flat object store — named append-only byte
//! objects plus whole-object writes — modeling the durable medium that
//! outlives a boot. Two backends:
//!
//! * [`MemDev`] — in-memory, with **crash injection**: bytes appended
//!   since the last [`BlockDev::sync`] are volatile, and a simulated
//!   crash discards them (optionally keeping a *torn tail* — a prefix of
//!   the unsynced bytes, the way a real disk persists part of an
//!   in-flight sector run). God-mode truncation injects a crash at any
//!   byte offset, which is what the crash-sweep suites iterate.
//! * [`FileDev`] — real files in a directory (tempdir in tests), so the
//!   WAL's group-commit batching is measured against actual `fsync`
//!   latency in the durability bench.
//!
//! Devices are handles: cloning (or [`BlockDev::clone_dev`]) yields a
//! second handle onto the *same* storage, which is how a reboot hands the
//! surviving medium to the next kernel while the test keeps a handle for
//! failure injection.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// The persistence boundary.
///
/// Operations are infallible by design: this models a medium, not an OS
/// error surface — a backend that genuinely cannot write (disk full on
/// the tempfile backend) panics, which in the simulator is a harness
/// bug, not a recoverable condition. *Data* corruption, by contrast, is
/// expected and handled: readers validate CRCs and treat anything
/// invalid as a torn write.
pub trait BlockDev {
    /// Names of existing objects, sorted.
    fn list(&self) -> Vec<String>;
    /// Reads a whole object; `None` if it does not exist.
    fn read(&self, name: &str) -> Option<Vec<u8>>;
    /// Appends bytes to an object, creating it if missing.
    fn append(&mut self, name: &str, bytes: &[u8]);
    /// Replaces an object's contents entirely.
    fn put(&mut self, name: &str, bytes: &[u8]);
    /// Truncates an object to `len` bytes (no-op if shorter or missing).
    fn truncate(&mut self, name: &str, len: u64);
    /// Removes an object (no-op if missing).
    fn remove(&mut self, name: &str);
    /// Makes everything written so far durable.
    fn sync(&mut self);
    /// A second handle onto the same underlying storage.
    fn clone_dev(&self) -> Box<dyn BlockDev>;
}

// ---------------------------------------------------------------------
// In-memory device with crash injection.
// ---------------------------------------------------------------------

#[derive(Clone, Default)]
struct MemObj {
    /// Current contents, including everything not yet synced.
    bytes: Vec<u8>,
    /// Contents as of the last sync — what a crash reverts to. A full
    /// copy, not a length watermark: an unsynced `put` that *overwrites*
    /// bytes in place must also be discarded by a crash, which a
    /// durable-prefix-length model silently treats as durable.
    durable: Vec<u8>,
    /// Whether `bytes` was changed other than by appending since `durable`
    /// was last set: a sync then copies the whole object, where otherwise
    /// it copies only the bytes appended since.
    rewritten: bool,
}

#[derive(Default)]
struct MemState {
    objects: BTreeMap<String, MemObj>,
    syncs: u64,
    crashes: u64,
}

/// The in-memory failpoint backend. Clones share storage.
#[derive(Clone, Default)]
pub struct MemDev {
    state: Rc<RefCell<MemState>>,
}

impl MemDev {
    /// An empty device.
    pub fn new() -> MemDev {
        MemDev::default()
    }

    /// Simulates a crash: every unsynced change is discarded. For
    /// append-shaped changes, `torn_tail` unsynced bytes survive anyway —
    /// the partially-persisted write a real disk can leave behind; a
    /// diverging unsynced rewrite (`put`, `truncate`) reverts to the
    /// durable contents entirely. The device remains usable; the next
    /// boot sees the post-crash contents.
    pub fn crash(&self, torn_tail: usize) {
        let mut s = self.state.borrow_mut();
        s.crashes += 1;
        for obj in s.objects.values_mut() {
            if obj.bytes.starts_with(&obj.durable) {
                let keep = (obj.durable.len() + torn_tail).min(obj.bytes.len());
                obj.bytes.truncate(keep);
            } else {
                obj.bytes = obj.durable.clone();
            }
            obj.durable = obj.bytes.clone();
            obj.rewritten = false;
        }
    }

    /// God-mode crash injection at an arbitrary byte offset: truncates
    /// one object to exactly `len` bytes and marks the result durable.
    /// The crash-sweep suites drive this over every offset of a WAL.
    pub fn truncate_object(&self, name: &str, len: usize) {
        let mut s = self.state.borrow_mut();
        if let Some(obj) = s.objects.get_mut(name) {
            obj.bytes.truncate(len);
            obj.durable = obj.bytes.clone();
            obj.rewritten = false;
        }
    }

    /// Flips one bit in an object (bit-rot injection).
    pub fn flip_bit(&self, name: &str, byte: usize, bit: u8) {
        let mut s = self.state.borrow_mut();
        if let Some(obj) = s.objects.get_mut(name) {
            if let Some(b) = obj.bytes.get_mut(byte) {
                *b ^= 1 << (bit % 8);
                obj.rewritten = true;
            }
        }
    }

    /// Raw contents of an object (test observability).
    pub fn dump(&self, name: &str) -> Vec<u8> {
        self.state
            .borrow()
            .objects
            .get(name)
            .map(|o| o.bytes.clone())
            .unwrap_or_default()
    }

    /// A deep copy of the current contents as an independent device with
    /// everything marked durable — the "image the disk, boot the copy"
    /// primitive the offset sweeps use.
    pub fn fork(&self) -> MemDev {
        let s = self.state.borrow();
        let objects = s
            .objects
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    MemObj {
                        bytes: v.bytes.clone(),
                        durable: v.bytes.clone(),
                        rewritten: false,
                    },
                )
            })
            .collect();
        MemDev {
            state: Rc::new(RefCell::new(MemState {
                objects,
                syncs: 0,
                crashes: 0,
            })),
        }
    }

    /// Number of [`BlockDev::sync`] calls (group-commit observability).
    pub fn sync_count(&self) -> u64 {
        self.state.borrow().syncs
    }

    /// Number of simulated crashes.
    pub fn crash_count(&self) -> u64 {
        self.state.borrow().crashes
    }
}

impl BlockDev for MemDev {
    fn list(&self) -> Vec<String> {
        self.state.borrow().objects.keys().cloned().collect()
    }

    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.state
            .borrow()
            .objects
            .get(name)
            .map(|o| o.bytes.clone())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        let mut s = self.state.borrow_mut();
        s.objects
            .entry(name.to_string())
            .or_default()
            .bytes
            .extend_from_slice(bytes);
    }

    fn put(&mut self, name: &str, bytes: &[u8]) {
        let mut s = self.state.borrow_mut();
        let obj = s.objects.entry(name.to_string()).or_default();
        obj.bytes = bytes.to_vec();
        obj.rewritten = true;
    }

    fn truncate(&mut self, name: &str, len: u64) {
        let mut s = self.state.borrow_mut();
        if let Some(obj) = s.objects.get_mut(name) {
            obj.bytes.truncate(len as usize);
            obj.rewritten = true;
        }
    }

    fn remove(&mut self, name: &str) {
        // Deletions are modeled as immediately durable (directory
        // operations); the recovery paths treat a missing object the
        // same as a crashed-away one.
        self.state.borrow_mut().objects.remove(name);
    }

    fn sync(&mut self) {
        let mut s = self.state.borrow_mut();
        s.syncs += 1;
        for obj in s.objects.values_mut() {
            if obj.rewritten {
                obj.durable.clone_from(&obj.bytes);
                obj.rewritten = false;
            } else {
                // Append-only since the last sync: `durable` is a prefix.
                let synced = obj.durable.len();
                obj.durable.extend_from_slice(&obj.bytes[synced..]);
            }
        }
    }

    fn clone_dev(&self) -> Box<dyn BlockDev> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// Real-file device.
// ---------------------------------------------------------------------

/// Directory-backed device: one file per object, `fsync` on sync.
///
/// Clones share the dirty-set, so syncs `fsync` only the objects
/// written since the last sync (group commit touches the log, not every
/// accumulated file).
#[derive(Clone)]
pub struct FileDev {
    dir: PathBuf,
    dirty: Rc<RefCell<BTreeSet<String>>>,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl FileDev {
    /// A device rooted at `dir` (created if missing).
    pub fn new(dir: PathBuf) -> FileDev {
        std::fs::create_dir_all(&dir).expect("create FileDev directory");
        FileDev {
            dir,
            dirty: Rc::default(),
        }
    }

    /// A device in a fresh unique directory under the system temp dir.
    /// The directory is *not* removed on drop — it models a disk, and
    /// the caller (tests, benches) owns its lifetime; see
    /// [`FileDev::destroy`].
    pub fn temp() -> FileDev {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("asbestos-store-{}-{n}", std::process::id()));
        FileDev::new(dir)
    }

    /// The backing directory.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// Removes the backing directory and everything in it.
    pub fn destroy(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn mark_dirty(&self, name: &str) {
        self.dirty.borrow_mut().insert(name.to_string());
    }
}

impl BlockDev for FileDev {
    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    fn read(&self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(name)).ok()
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .expect("open object for append");
        f.write_all(bytes).expect("append to object");
        self.mark_dirty(name);
    }

    fn put(&mut self, name: &str, bytes: &[u8]) {
        std::fs::write(self.path(name), bytes).expect("write object");
        self.mark_dirty(name);
    }

    fn truncate(&mut self, name: &str, len: u64) {
        if let Ok(f) = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
        {
            if f.metadata().map(|m| m.len() > len).unwrap_or(false) {
                f.set_len(len).expect("truncate object");
                self.mark_dirty(name);
            }
        }
    }

    fn remove(&mut self, name: &str) {
        let _ = std::fs::remove_file(self.path(name));
        self.dirty.borrow_mut().remove(name);
    }

    fn sync(&mut self) {
        // Only objects written since the last sync: group commit fsyncs
        // the log, not every accumulated file.
        let dirty = std::mem::take(&mut *self.dirty.borrow_mut());
        for name in dirty {
            if let Ok(f) = std::fs::File::open(self.path(&name)) {
                let _ = f.sync_all();
            }
        }
    }

    fn clone_dev(&self) -> Box<dyn BlockDev> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdev_sync_and_crash_semantics() {
        let mut dev = MemDev::new();
        dev.append("a", b"hello ");
        dev.sync();
        dev.append("a", b"world");
        // Unsynced tail is lost on crash.
        let copy = dev.clone();
        copy.crash(0);
        assert_eq!(dev.read("a").unwrap(), b"hello ");
        // Appends keep working after the crash.
        dev.append("a", b"again");
        dev.sync();
        assert_eq!(dev.read("a").unwrap(), b"hello again");
        assert!(dev.sync_count() >= 2);
        assert_eq!(dev.crash_count(), 1);
    }

    #[test]
    fn memdev_unsynced_put_is_discarded_by_crash() {
        // Regression: a durable-prefix-*length* watermark would treat an
        // in-place overwrite of equal length as durable.
        let mut dev = MemDev::new();
        dev.put("obj", b"AAAAAAAA");
        dev.sync();
        dev.put("obj", b"BBBBBBBB");
        dev.clone().crash(0);
        assert_eq!(dev.read("obj").unwrap(), b"AAAAAAAA");
        // Same for an unsynced truncate-then-rewrite.
        dev.put("obj", b"CC");
        dev.clone().crash(4);
        assert_eq!(
            dev.read("obj").unwrap(),
            b"AAAAAAAA",
            "diverging rewrites revert fully; torn tails only apply to appends"
        );
    }

    #[test]
    fn memdev_sync_copies_appends_and_whole_rewrites() {
        let mut dev = MemDev::new();
        dev.append("a", b"one|");
        dev.sync();
        dev.append("a", b"two|");
        dev.sync();
        dev.append("a", b"three");
        dev.sync();
        // After append-only syncs everything is durable.
        let before = dev.dump("a");
        dev.clone().crash(0);
        assert_eq!(dev.dump("a"), before);
        assert_eq!(before, b"one|two|three");
        // An overwriting `put` then an `append`, unsynced: the crash
        // reverts to the last synced contents, torn tail or not.
        dev.put("a", b"ONE|");
        dev.append("a", b"more");
        dev.clone().crash(2);
        assert_eq!(dev.dump("a"), b"one|two|three");
        // Synced, the rewrite is durable in full, appends after it too.
        dev.put("a", b"ONE|");
        dev.sync();
        dev.append("a", b"more");
        dev.sync();
        dev.clone().crash(0);
        assert_eq!(dev.dump("a"), b"ONE|more");
    }

    #[test]
    fn memdev_torn_tail_keeps_partial_write() {
        let mut dev = MemDev::new();
        dev.append("a", b"durable|");
        dev.sync();
        dev.append("a", b"volatile");
        dev.crash(3);
        assert_eq!(dev.read("a").unwrap(), b"durable|vol");
    }

    #[test]
    fn memdev_fork_is_independent() {
        let mut dev = MemDev::new();
        dev.append("a", b"base");
        let fork = dev.fork();
        dev.append("a", b"+more");
        assert_eq!(fork.read("a").unwrap(), b"base");
        fork.truncate_object("a", 2);
        assert_eq!(dev.dump("a"), b"base+more");
    }

    #[test]
    fn filedev_round_trip() {
        let mut dev = FileDev::temp();
        dev.append("wal.0", b"abc");
        dev.append("wal.0", b"def");
        dev.put("snap.0", b"SNAP");
        dev.sync();
        assert_eq!(dev.read("wal.0").unwrap(), b"abcdef");
        assert_eq!(dev.read("snap.0").unwrap(), b"SNAP");
        assert_eq!(dev.list(), vec!["snap.0".to_string(), "wal.0".to_string()]);
        dev.truncate("wal.0", 4);
        assert_eq!(dev.read("wal.0").unwrap(), b"abcd");
        let mut second = dev.clone_dev();
        second.remove("snap.0");
        assert_eq!(dev.list(), vec!["wal.0".to_string()]);
        dev.destroy();
    }
}
