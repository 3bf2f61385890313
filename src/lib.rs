//! # asbestos
//!
//! A user-space reproduction of *Labels and Event Processes in the Asbestos
//! Operating System* (SOSP 2005). This facade crate re-exports the
//! workspace so applications and the examples can use one dependency:
//!
//! * [`labels`] — the §5 label algebra: [`labels::Label`],
//!   [`labels::Handle`], [`labels::Level`], and the Figure 4 operations;
//! * [`kernel`] — the kernel simulator: processes, ports, labeled IPC with
//!   delivery-time checks and silent drops, event processes with
//!   copy-on-write memory, cycle and memory accounting;
//! * [`net`] — the simulated TCP substrate and the netd network server;
//! * [`fs`] — the labeled multi-user file server of §5.2–§5.4;
//! * [`db`] — the relational engine and the ok-dbproxy label gateway;
//! * [`okws`] — the OK web server: launcher, ok-demux, idd, event-process
//!   workers, and §7.6 declassifiers;
//! * [`baseline`] — the Apache / Mod-Apache comparison models of §9.2.
//!
//! Start with the `quickstart` example, or see README.md for the tour and
//! DESIGN.md for the full system inventory.
//!
//! ```
//! use asbestos::kernel::{Kernel, Category, Value, Label};
//! use asbestos::kernel::util::Recorder;
//!
//! let mut kernel = Kernel::new(1);
//! let (inbox, log) = Recorder::new("inbox.port");
//! kernel.spawn("inbox", Category::Other, Box::new(inbox));
//! let port = kernel.global_env("inbox.port").unwrap().as_handle().unwrap();
//! kernel.inject(port, Value::Str("hello".into()));
//! kernel.run();
//! assert_eq!(log.lock().unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub use asbestos_baseline as baseline;
pub use asbestos_db as db;
pub use asbestos_fs as fs;
pub use asbestos_kernel as kernel;
pub use asbestos_labels as labels;
pub use asbestos_net as net;
pub use asbestos_okws as okws;
