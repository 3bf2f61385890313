//! # asbestos-okws
//!
//! The OK web server on Asbestos (§7 of the paper): launcher, ok-demux,
//! idd, event-process workers, and §7.6 declassifiers, wired to netd
//! (asbestos-net) and ok-dbproxy (asbestos-db).
//!
//! The deployment reproduces Figure 1's architecture and Figure 5's
//! message flow: untrusted per-service workers hold per-user session state
//! in event processes; the kernel's label checks — not worker correctness —
//! enforce that one user's data cannot reach another user.
//!
//! ```no_run
//! use asbestos_kernel::Kernel;
//! use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};
//! use asbestos_okws::logic::EchoStore;
//!
//! let mut kernel = Kernel::new(7);
//! let mut config = OkwsConfig::new(80);
//! config.services.push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
//! config.users.push(("alice".into(), "pw".into()));
//! let okws = Okws::start(&mut kernel, config);
//! let mut client = OkwsClient::new(&okws);
//! let (status, body) =
//!     client.request_sync(&mut kernel, "store", "alice", "pw", &[("data", "hi")]).unwrap();
//! assert_eq!(status, 200);
//! assert!(body.is_empty()); // first request: nothing stored yet
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod demux;
pub mod idd;
pub mod launcher;
pub mod logic;
pub mod proto;
pub mod server;
pub mod worker;

pub use cache::{spawn_cache, CacheHandle, CacheMsg, OkCache};
pub use demux::OkDemux;
pub use idd::{spawn_idd, Idd, IddHandle};
pub use launcher::{Launcher, OkwsConfig, ServiceSpec};
pub use logic::{
    Action, CachedProfile, EchoStore, ParamLength, Passwd, Profile, SessionStore, WorkerLogic,
};
pub use proto::OkwsMsg;
pub use server::{Okws, OkwsClient};
pub use worker::Worker;
