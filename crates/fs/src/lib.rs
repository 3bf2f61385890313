//! # asbestos-fs
//!
//! The labeled multi-user file server that §5.2–§5.4 of the Asbestos paper
//! use as their running example: taint-on-read (file data returns
//! contaminated with the owner's `uT 3`), discretionary integrity (writes
//! require the verification-label proof `V(uG) ≤ 0`), and mandatory
//! integrity for system files via a dedicated compartment (`V(s) ≤ 1`,
//! excluding network-contaminated processes at the kernel).

#![forbid(unsafe_code)]

pub mod proto;
pub mod server;

pub use proto::FsMsg;
pub use server::{spawn_fs, FileServer, FsHandle, FS_PORT_ENV, FS_SYSTEM_COMPARTMENT_ENV};
