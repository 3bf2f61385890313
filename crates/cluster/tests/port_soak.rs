//! Kernel state under steady federated traffic: once every session is
//! built, no kernel's table of live ports grows — the per-connection ports
//! on the front end and the per-login ports are dissociated when done, and
//! the worker kernels mint nothing per request that outlives it. Runs at
//! `ASBESTOS_KERNELS` kernels (default 2).

use asbestos_cluster::{deploy_okws, Cluster};
use asbestos_okws::logic::ParamLength;
use asbestos_okws::{OkwsClient, OkwsConfig, ServiceSpec};

const USERS: usize = 256;

/// Rounds after the baseline: `ROUNDS × USERS` ≥ 2,000 requests.
const ROUNDS: usize = 8;

/// Issues one request per user on kernel 0, runs the cluster to idle and
/// checks every response.
fn serve_round(cluster: &mut Cluster, client: &mut OkwsClient) {
    let front = &mut cluster.nodes[0].kernel;
    let issued: Vec<usize> = (0..USERS)
        .map(|u| client.request(front, "bench", &format!("u{u}"), &format!("p{u}"), &[]))
        .collect();
    cluster.run();
    client.driver.poll(&cluster.nodes[0].kernel);
    for idx in issued {
        let (status, _) = client.parse_response(idx).expect("every request is served");
        assert_eq!(status, 200);
    }
}

fn live_ports(cluster: &Cluster) -> Vec<usize> {
    cluster
        .nodes
        .iter()
        .map(|node| node.kernel.handle_table().len())
        .collect()
}

#[test]
fn federated_steady_traffic_leaves_every_port_table_flat() {
    let kernels = std::env::var("ASBESTOS_KERNELS")
        .ok()
        .and_then(|k| k.trim().parse().ok())
        .unwrap_or(2);
    let mut cluster = Cluster::new(72, kernels, 1);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
    config.users = (0..USERS)
        .map(|u| (format!("u{u}"), format!("p{u}")))
        .collect();
    let okws = deploy_okws(&mut cluster, config);
    let mut client = OkwsClient::new(&okws);

    // Build every session, then serve one more round as the baseline.
    serve_round(&mut cluster, &mut client);
    serve_round(&mut cluster, &mut client);
    let baseline = live_ports(&cluster);
    for round in 0..ROUNDS {
        serve_round(&mut cluster, &mut client);
        assert_eq!(
            live_ports(&cluster),
            baseline,
            "{kernels} kernels: live ports grew by round {round}"
        );
    }
}
