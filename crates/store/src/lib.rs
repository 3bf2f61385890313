//! # asbestos-store
//!
//! The durability substrate for the §7.5 persistence claim: "With
//! database access, OKWS can extend its label-based security policy to
//! one that persists across system reboots." Everything above this crate
//! is a live kernel whose handles die with the boot; everything below is
//! a [`BlockDev`] — the medium that survives.
//!
//! * [`BlockDev`] — the persistence boundary: named append-only objects
//!   with an explicit sync. [`MemDev`] is the failpoint backend (crash
//!   injection at arbitrary byte offsets, torn tail writes); [`FileDev`]
//!   is a real tempfile-backed directory with `fsync`.
//! * [`Store`] — an append-only, CRC-checksummed, length-prefixed
//!   write-ahead log with group commit, segment rotation, and snapshot
//!   compaction, plus the persisted **boot epoch** counter that the
//!   kernel folds into its handle cipher so fresh boots mint fresh
//!   handles (§5.1). The batch is whatever the caller appends between
//!   [`Store::commit`]s; `asbestos-db` sizes it one way, a positive
//!   count (`ASBESTOS_DB_GROUP_COMMIT`, default 1 — sync per mutation).
//!
//! Records are opaque bytes: the database layer (`asbestos-db`) defines
//! what a redo record means; this crate guarantees only that recovery
//! yields exactly some committed prefix of them, never a torn suffix.

#![forbid(unsafe_code)]

pub mod blockdev;
pub mod crc;
pub mod store;
pub mod wal;

pub use blockdev::{BlockDev, FileDev, MemDev};
pub use crc::crc32;
pub use store::{Recovery, Store, DEFAULT_COMPACT_THRESHOLD, DEFAULT_SEGMENT_LIMIT};
pub use wal::{encode_commit, encode_frame, scan_committed, scan_frames, FrameKind};
