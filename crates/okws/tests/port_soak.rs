//! Kernel state under steady traffic: every connection mints ports (netd's
//! `uC`, ok-demux's reply port, idd's per-login port) and dissociates them
//! when it is done, so once every session is built the kernel's table of
//! live ports stops growing. Runs at `ASBESTOS_TEST_SHARDS` shards and
//! `ASBESTOS_NETD_LANES` netd lanes (default 1 each).

use asbestos_kernel::Kernel;
use asbestos_okws::logic::ParamLength;
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

const USERS: usize = 256;

/// Rounds after the baseline: `ROUNDS × USERS` ≥ 2,000 requests.
const ROUNDS: usize = 8;

fn count(key: &str) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

/// Issues one request per user, runs the kernel to idle and checks every
/// response.
fn serve_round(kernel: &mut Kernel, client: &mut OkwsClient) {
    let issued: Vec<usize> = (0..USERS)
        .map(|u| client.request(kernel, "bench", &format!("u{u}"), &format!("p{u}"), &[]))
        .collect();
    kernel.run();
    client.driver.poll(kernel);
    for idx in issued {
        let (status, _) = client.parse_response(idx).expect("every request is served");
        assert_eq!(status, 200);
    }
}

#[test]
fn steady_traffic_leaves_the_port_table_flat() {
    let (shards, lanes) = (count("ASBESTOS_TEST_SHARDS"), count("ASBESTOS_NETD_LANES"));
    let mut config = OkwsConfig::new(80).sharded(shards).lanes(lanes);
    config
        .services
        .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
    config.users = (0..USERS)
        .map(|u| (format!("u{u}"), format!("p{u}")))
        .collect();
    let (mut kernel, okws) = Okws::deploy(71, config);
    let mut client = OkwsClient::new(&okws);

    // Build every session, then serve one more round as the baseline.
    serve_round(&mut kernel, &mut client);
    serve_round(&mut kernel, &mut client);
    let baseline = kernel.handle_table().len();
    for round in 0..ROUNDS {
        serve_round(&mut kernel, &mut client);
        assert_eq!(
            kernel.handle_table().len(),
            baseline,
            "{shards}×{lanes}: live ports grew by round {round}"
        );
    }
    assert_eq!(kernel.queue_len(), 0);
}
