//! A sharded OKWS deployment is a function of its inputs: two fresh
//! deployments fed the same requests agree on every response byte, every
//! kernel counter and every shard's clock — with no scheduler setting
//! asked for, because there is only one schedule.

use asbestos_loadgen::{ScenarioConfig, World};

const USERS: usize = 16;
const REQUESTS: usize = 64;
/// Connections opened before each drain, so several shards have work at
/// once.
const BATCH: usize = 8;

/// Deploys OKWS at `shards` × 4 lanes, replays the fixed request list and
/// returns the raw responses, the kernel's `Stats` text and the per-shard
/// clocks.
fn replay(shards: usize) -> (Vec<Vec<u8>>, String, Vec<u64>) {
    let cfg = ScenarioConfig::new(USERS, REQUESTS).deployment(shards, 4);
    let mut world = World::deploy(cfg, 0x5EED);
    world.kernel_mut().run();
    for i in 0..REQUESTS {
        let data = format!("d{i}");
        // Two writes to one read; every user is hit several times.
        let extra: &[(&str, &str)] = if i % 3 == 2 { &[] } else { &[("data", &data)] };
        world.request("store", (i * 7) % USERS, extra, i);
        if i % BATCH == BATCH - 1 {
            world.drain();
        }
    }
    world.assert_all_ok();
    let responses = world
        .issued
        .iter()
        .map(|r| world.client.driver.request(r.idx).response.clone())
        .collect();
    (
        responses,
        format!("{:?}", world.kernel().stats()),
        world.kernel().per_shard_elapsed_cycles(),
    )
}

#[test]
fn sharded_okws_replays_identically_on_fresh_deployments() {
    for shards in [4, 8] {
        let (responses, stats, clocks) = replay(shards);
        let (responses2, stats2, clocks2) = replay(shards);
        assert_eq!(responses, responses2, "{shards}x4: response bytes");
        assert_eq!(stats, stats2, "{shards}x4: kernel counters");
        assert_eq!(clocks, clocks2, "{shards}x4: per-shard clocks");
    }
}
