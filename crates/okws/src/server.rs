//! OKWS assembly, reboot, and a test/bench client.

use asbestos_kernel::{Category, CostModel, Kernel, Level, ProcessId};
use asbestos_net::{spawn_netd, ClientDriver, NetdHandle};
use asbestos_store::Store;

use crate::launcher::{Launcher, OkwsConfig};

/// A running OKWS deployment.
pub struct Okws {
    /// The network server's handle (substrate access for drivers).
    pub netd: NetdHandle,
    /// The TCP port OKWS serves.
    pub tcp_port: u16,
    /// The launcher's process id.
    pub launcher: ProcessId,
}

impl Okws {
    /// Spawns netd and the full OKWS process suite, then runs the kernel
    /// until startup settles (registration, table creation, accounts).
    ///
    /// The spawn order is netd, then the workers, then the
    /// launcher, which spawns ok-demux, idd and ok-dbproxy itself. The
    /// workers are spawned before the launcher with default labels, so
    /// none inherits the launcher's `⋆` on the verification handles it
    /// mints; the launcher then grants each worker its own handle at
    /// activation, completing the §7.1 trust chain. A worker whose spec
    /// already gave up its body was placed on another kernel by the
    /// cluster assembler and is only activated.
    pub fn start(kernel: &mut Kernel, mut config: OkwsConfig) -> Okws {
        let tcp_port = config.tcp_port;
        let netd = spawn_netd(kernel);
        for spec in &mut config.services {
            spec.take_body(|name, body| {
                kernel.spawn_ep_service(name, Category::Okws, body);
                kernel
            });
        }
        let launcher = Box::new(Launcher::new(config, &netd));
        let launcher = kernel.spawn("launcher", Category::Okws, launcher);
        kernel.run();
        Okws {
            netd,
            tcp_port,
            launcher,
        }
    }

    /// Builds a kernel and deploys OKWS on it with [`Okws::start`].
    ///
    /// A durable config ([`OkwsConfig::durable`]) boots as the epoch
    /// *after* the device's last recorded boot, so the kernel's handle
    /// cipher never re-mints a dead boot's handles (§5.1: handles are
    /// unique since boot — here, across actual reboots too).
    pub fn deploy(seed: u64, config: OkwsConfig) -> (Kernel, Okws) {
        let epoch = config
            .db_store
            .as_ref()
            .map_or(0, |dev| Store::peek_epoch(dev.as_ref()) + 1);
        let mut kernel = Kernel::with_boot_epoch(seed, CostModel::default(), 1, epoch);
        let okws = Okws::start(&mut kernel, config);
        (kernel, okws)
    }

    /// Boots the next epoch of a durable deployment: the device in
    /// `config` carries the previous boot's snapshot + WAL, and the new
    /// kernel recovers it during assembly. Everything per-boot is fresh —
    /// handles (idd mints new `uT`/`uG` pairs on first login and
    /// re-grants ok-dbproxy `⋆` on each), ports, sessions — while the
    /// database rows and their hidden ownership column persist, and
    /// `Bind` re-connects each user's fresh taint handle to their
    /// recovered rows.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no durable store — a volatile deployment
    /// has nothing to reboot *from*.
    pub fn reboot(seed: u64, config: OkwsConfig) -> (Kernel, Okws) {
        assert!(
            config.db_store.is_some(),
            "reboot needs a durable store (OkwsConfig::durable)"
        );
        Okws::deploy(seed, config)
    }

    /// Cleanly shuts the deployment down: drains the kernel, then runs
    /// every service's teardown hook so ok-dbproxy group-commits its WAL
    /// tail. Crash = skipping this and just dropping the kernel.
    pub fn shutdown(self, kernel: &mut Kernel) {
        kernel.run();
        kernel.teardown();
    }

    /// Every handle idd currently holds at `⋆` — its ports plus the
    /// per-user `uT`/`uG` pairs it minted this boot. The login-storm
    /// scenarios snapshot this before and after a reboot to pin §5.1
    /// across boots: handles are unique since boot, so no boot-N handle
    /// may ever be observed after boot N+1 comes up.
    pub fn idd_star_handles(kernel: &Kernel) -> Vec<u64> {
        let idd = kernel
            .find_process("idd")
            .expect("a deployed OKWS always has an idd");
        kernel
            .process(idd)
            .send_label
            .iter()
            .filter(|(_, level)| *level == Level::Star)
            .map(|(h, _)| h.raw())
            .collect()
    }
}

/// An HTTP client for a running OKWS (test and benchmark harness).
pub struct OkwsClient {
    /// The underlying connection driver.
    pub driver: ClientDriver,
    tcp_port: u16,
}

impl OkwsClient {
    /// Creates a client for the deployment.
    pub fn new(okws: &Okws) -> OkwsClient {
        OkwsClient {
            driver: ClientDriver::new(&okws.netd),
            tcp_port: okws.tcp_port,
        }
    }

    /// Issues `GET /{service}?user=&pw=&extra…` and returns the request
    /// index. The caller decides when to run the kernel.
    pub fn request(
        &mut self,
        kernel: &mut Kernel,
        service: &str,
        user: &str,
        password: &str,
        extra: &[(&str, &str)],
    ) -> usize {
        let mut target = format!("/{service}?user={user}&pw={password}");
        for (k, v) in extra {
            target.push('&');
            target.push_str(k);
            target.push('=');
            target.push_str(v);
        }
        self.driver.get(kernel, self.tcp_port, &target)
    }

    /// Issues a request and runs the kernel until it completes; returns
    /// `(status, body)` if a well-formed response arrived.
    pub fn request_sync(
        &mut self,
        kernel: &mut Kernel,
        service: &str,
        user: &str,
        password: &str,
        extra: &[(&str, &str)],
    ) -> Option<(u16, Vec<u8>)> {
        let idx = self.request(kernel, service, user, password, extra);
        kernel.run();
        self.driver.poll(kernel);
        self.parse_response(idx)
    }

    /// Parses a completed response into `(status, body)`.
    pub fn parse_response(&self, idx: usize) -> Option<(u16, Vec<u8>)> {
        let raw = &self.driver.request(idx).response;
        if raw.is_empty() {
            return None;
        }
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&raw[..head_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        Some((status, raw[head_end..].to_vec()))
    }
}
