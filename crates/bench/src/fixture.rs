//! Standard OKWS deployments and workloads for the evaluation.

use asbestos_kernel::Kernel;
use asbestos_okws::logic::{EchoStore, ParamLength};
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

/// The paper's client concurrency for the latency experiment (§9.2.2).
pub const LATENCY_CONCURRENCY: usize = 4;

/// Connections per user in the throughput workload (§9.2.1: "each user
/// connected to its session exactly four times").
pub const CONNS_PER_USER: usize = 4;

/// A deployed OKWS with its kernel and client.
pub struct BenchEnv {
    /// The kernel everything runs in.
    pub kernel: Kernel,
    /// The deployment.
    pub okws: Okws,
    /// The HTTP client driver.
    pub client: OkwsClient,
    /// Configured usernames (passwords are `pw-{name}`).
    pub users: Vec<String>,
}

/// Username for user `i`.
pub fn user_name(i: usize) -> String {
    format!("u{i}")
}

fn password(name: &str) -> String {
    format!("pw-{name}")
}

/// Deploys OKWS with `users` accounts and the given service mix.
///
/// * `"bench"` runs [`ParamLength`] — §9.2's parameterized-response
///   service (144-byte responses by default).
/// * `"store"` runs [`EchoStore`] — §9.1's ~1 KiB session-state service.
///
/// `tidy` controls the workers' `ep_clean` discipline (Figure 6's
/// cached-vs-active experiments).
pub fn deploy(seed: u64, users: usize, tidy: bool) -> BenchEnv {
    let mut config = OkwsConfig::new(80);
    let bench = ServiceSpec::new("bench", || Box::new(ParamLength));
    let store = ServiceSpec::new("store", || Box::new(EchoStore::new()));
    config
        .services
        .push(if tidy { bench } else { bench.untidy() });
    config
        .services
        .push(if tidy { store } else { store.untidy() });
    for i in 0..users {
        let name = user_name(i);
        let pw = password(&name);
        config.users.push((name, pw));
    }
    let (kernel, okws) = Okws::deploy(seed, config);
    let client = OkwsClient::new(&okws);
    BenchEnv {
        kernel,
        okws,
        client,
        users: (0..users).map(user_name).collect(),
    }
}

impl BenchEnv {
    /// Issues one request for `user` against `service` and returns the
    /// driver request index (run the kernel to completion separately).
    pub fn issue(&mut self, service: &str, user_idx: usize, extra: &[(&str, &str)]) -> usize {
        let user = user_name(user_idx);
        let pw = password(&user);
        self.client
            .request(&mut self.kernel, service, &user, &pw, extra)
    }

    /// Issues a request and runs to completion; panics on a missing or
    /// non-200 response (the benches must not silently measure failures).
    pub fn request_ok(&mut self, service: &str, user_idx: usize, extra: &[(&str, &str)]) {
        let idx = self.issue(service, user_idx, extra);
        self.kernel.run();
        self.client.driver.poll(&self.kernel);
        let (status, _body) = self
            .client
            .parse_response(idx)
            .unwrap_or_else(|| panic!("request {idx} for user {user_idx} got no response"));
        assert_eq!(status, 200, "request {idx} for user {user_idx} failed");
    }

    /// Establishes one session per user on `service` (the session-building
    /// phase of every experiment). Uses `data` as the stored state for
    /// store-service sessions.
    pub fn build_sessions(&mut self, service: &str, data: Option<&str>) {
        let extra: Vec<(&str, &str)> = match data {
            Some(d) => vec![("data", d)],
            None => vec![],
        };
        for i in 0..self.users.len() {
            self.request_ok(service, i, &extra);
        }
    }
}
