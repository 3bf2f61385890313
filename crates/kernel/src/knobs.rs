//! The consolidated `ASBESTOS_*` environment knobs.
//!
//! Every runtime knob the workspace reads from the environment is named
//! here, and the two parse shapes they share live here too. The
//! subsystems keep their own defaults and domain types (the kernel's
//! port-queue bound, the store's group-commit batch) and delegate the
//! string handling to this module, so a new knob is one constant plus a
//! call to an already-tested parser — not a seventh ad-hoc
//! `env::var(..).parse()` chain.
//!
//! | knob | shape | consumer |
//! |---|---|---|
//! | `ASBESTOS_PORT_QUEUE` | positive count | per-port queue bound (`shard.rs`) |
//! | `ASBESTOS_DB_GROUP_COMMIT` | positive count | WAL group commit (`db::durable`) |
//! | `ASBESTOS_NETD_LANES` | count | CI matrix lane count (tests) |
//! | `ASBESTOS_TEST_SHARDS` | count | CI matrix shard count (tests) |
//! | `ASBESTOS_KERNELS` | count | federation kernel count (`cluster`) |
//! | `ASBESTOS_CLUSTER_SOCKET` | path | federation socket directory (`cluster`) |

/// Per-port message-queue bound.
pub const PORT_QUEUE_ENV: &str = "ASBESTOS_PORT_QUEUE";
/// WAL group-commit batch: mutations per sync, at least 1.
pub const DB_GROUP_COMMIT_ENV: &str = "ASBESTOS_DB_GROUP_COMMIT";
/// netd lane count exercised by the CI matrix.
pub const NETD_LANES_ENV: &str = "ASBESTOS_NETD_LANES";
/// Shard count exercised by the CI matrix.
pub const TEST_SHARDS_ENV: &str = "ASBESTOS_TEST_SHARDS";
/// Federated kernel count exercised by the CI matrix (see
/// `crates/cluster`).
pub const KERNELS_ENV: &str = "ASBESTOS_KERNELS";
/// Directory for the federation's path-based Unix sockets; unset means
/// anonymous in-process socket pairs.
pub const CLUSTER_SOCKET_ENV: &str = "ASBESTOS_CLUSTER_SOCKET";

/// Reads a knob's raw value.
pub fn raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Parses a count knob: a whitespace-tolerant `usize`. Unset or
/// unparsable is `None`; `0` is a legal count (some knobs use it to mean
/// "disabled").
pub fn parse_count(value: Option<&str>) -> Option<usize> {
    value.and_then(|v| v.trim().parse::<usize>().ok())
}

/// Parses a count knob that must be at least 1 (queue bounds, lane
/// counts): like [`parse_count`], but `0` is rejected too.
pub fn parse_positive(value: Option<&str>) -> Option<usize> {
    parse_count(value).filter(|&n| n > 0)
}

/// Reads an at-least-1 count knob from the environment.
pub fn positive(name: &str) -> Option<usize> {
    parse_positive(raw(name).as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(parse_count(None), None);
        assert_eq!(parse_count(Some("not-a-number")), None);
        assert_eq!(parse_count(Some("")), None);
        assert_eq!(parse_count(Some("0")), Some(0));
        assert_eq!(parse_count(Some("4096")), Some(4096));
        assert_eq!(parse_count(Some(" 64 ")), Some(64));
    }

    #[test]
    fn positive_counts_reject_zero() {
        assert_eq!(parse_positive(Some("0")), None);
        assert_eq!(parse_positive(Some("1")), Some(1));
        assert_eq!(parse_positive(Some(" 4096 ")), Some(4096));
        assert_eq!(parse_positive(None), None);
    }

    #[test]
    fn knob_names_are_namespaced() {
        for name in [
            PORT_QUEUE_ENV,
            DB_GROUP_COMMIT_ENV,
            NETD_LANES_ENV,
            TEST_SHARDS_ENV,
            KERNELS_ENV,
            CLUSTER_SOCKET_ENV,
        ] {
            assert!(name.starts_with("ASBESTOS_"), "{name}");
        }
    }
}
