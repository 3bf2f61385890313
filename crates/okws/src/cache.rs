//! ok-cache: a shared, user-isolated cache.
//!
//! §2: "A production system would additionally have a cache shared by all
//! workers, and Asbestos could without much trouble support a shared cache
//! that isolated users." This module is that cache: one process shared by
//! every worker, holding per-user entries, with the same label discipline
//! as ok-dbproxy — writes gated on `V ⊑ {uT 3, uG 0, 2}`, reads returned
//! contaminated with the owning user's taint at 3, misses untainted.
//!
//! Like ok-dbproxy, the cache learns user ↔ handle bindings from idd
//! (speaking the same `Bind`/`AdminPort` admin protocol) and is granted
//! every taint handle at `⋆`.

use std::collections::BTreeMap;

use asbestos_db::DbMsg;
use asbestos_kernel::{
    Category, Handle, Kernel, Label, Level, Message, Payload, ProcessId, SendArgs, Service, Sys,
    Value,
};

use crate::idd::CACHE_TRUSTED_ENV;

/// Environment key for the cache's worker-facing port.
pub const CACHE_PORT_ENV: &str = "okws.cache.port";

/// Cycles charged per cache operation.
pub const CACHE_OP_CYCLES: u64 = 12_000;

/// A message in the cache protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheMsg {
    /// Store `bytes` under `key` for `user`. Requires the §7.5 write proof.
    Put {
        /// Acting user.
        user: String,
        /// Cache key (shared namespace; ownership isolates values).
        key: String,
        /// Cached bytes (a refcounted view; storing shares, not copies).
        bytes: Payload,
    },
    /// Look up `key`. The cache replies with ok-dbproxy's two-message
    /// pattern (§7.5): a [`CacheMsg::Hit`] contaminated with the owner's
    /// taint (which the kernel may drop), then an untainted
    /// [`CacheMsg::GetDone`] terminator — so a requester that may not see
    /// the entry observes an ordinary miss.
    Get {
        /// Cache key.
        key: String,
        /// Reply port.
        reply: Handle,
    },
    /// A cache hit (contaminated with the owning user's taint at 3).
    Hit {
        /// Cache key echoed back.
        key: String,
        /// The cached bytes (shared with the stored entry — a hit moves a
        /// refcount, never the bytes).
        bytes: Payload,
    },
    /// End of a lookup; always delivered untainted.
    GetDone {
        /// Cache key echoed back.
        key: String,
    },
    /// Evict a user's key (requires the same proof as Put).
    Evict {
        /// Acting user.
        user: String,
        /// Cache key.
        key: String,
    },
}

impl CacheMsg {
    /// Encodes to a [`Value`] payload.
    pub fn to_value(&self) -> Value {
        match self {
            CacheMsg::Put { user, key, bytes } => Value::List(vec![
                Value::Str("cache-put".into()),
                Value::Str(user.clone()),
                Value::Str(key.clone()),
                Value::Bytes(bytes.clone()),
            ]),
            CacheMsg::Get { key, reply } => Value::List(vec![
                Value::Str("cache-get".into()),
                Value::Str(key.clone()),
                Value::Handle(*reply),
            ]),
            CacheMsg::Hit { key, bytes } => Value::List(vec![
                Value::Str("cache-hit".into()),
                Value::Str(key.clone()),
                Value::Bytes(bytes.clone()),
            ]),
            CacheMsg::GetDone { key } => Value::List(vec![
                Value::Str("cache-get-done".into()),
                Value::Str(key.clone()),
            ]),
            CacheMsg::Evict { user, key } => Value::List(vec![
                Value::Str("cache-evict".into()),
                Value::Str(user.clone()),
                Value::Str(key.clone()),
            ]),
        }
    }

    /// Decodes from a [`Value`] payload.
    pub fn from_value(value: &Value) -> Option<CacheMsg> {
        let items = value.as_list()?;
        match items.first()?.as_str()? {
            "cache-put" => Some(CacheMsg::Put {
                user: items.get(1)?.as_str()?.to_string(),
                key: items.get(2)?.as_str()?.to_string(),
                bytes: items.get(3)?.as_payload()?.clone(),
            }),
            "cache-get" => Some(CacheMsg::Get {
                key: items.get(1)?.as_str()?.to_string(),
                reply: items.get(2)?.as_handle()?,
            }),
            "cache-hit" => Some(CacheMsg::Hit {
                key: items.get(1)?.as_str()?.to_string(),
                bytes: items.get(2)?.as_payload()?.clone(),
            }),
            "cache-get-done" => Some(CacheMsg::GetDone {
                key: items.get(1)?.as_str()?.to_string(),
            }),
            "cache-evict" => Some(CacheMsg::Evict {
                user: items.get(1)?.as_str()?.to_string(),
                key: items.get(2)?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

struct Binding {
    taint: Handle,
    grant: Handle,
}

struct Entry {
    owner_taint: Handle,
    bytes: Payload,
}

/// The shared-cache service.
pub struct OkCache {
    users: BTreeMap<String, Binding>,
    entries: BTreeMap<String, Entry>,
    admin_port: Option<Handle>,
}

impl OkCache {
    /// Creates an empty cache.
    pub fn new() -> OkCache {
        OkCache {
            users: BTreeMap::new(),
            entries: BTreeMap::new(),
            admin_port: None,
        }
    }

    /// The §7.5 write gate, shared with ok-dbproxy.
    fn write_allowed(&self, user: &str, verify: &Label) -> Option<&Binding> {
        let binding = self.users.get(user)?;
        let bound = Label::from_pairs(
            Level::L2,
            &[(binding.taint, Level::L3), (binding.grant, Level::L0)],
        );
        if verify.leq(&bound) {
            Some(binding)
        } else {
            None
        }
    }

    /// Number of live entries (god-mode stat).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for OkCache {
    fn default() -> OkCache {
        OkCache::new()
    }
}

impl Service for OkCache {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        let port = sys.new_port(Label::top());
        sys.set_port_label(port, Label::top())
            .expect("creator owns the port");
        sys.publish_env(CACHE_PORT_ENV, Value::Handle(port));

        // Announce our (closed) admin port to idd; bindings arrive there.
        let admin = sys.new_port(Label::top());
        self.admin_port = Some(admin);
        if let Some(trusted) = sys.env(CACHE_TRUSTED_ENV).and_then(|v| v.as_handle()) {
            let _ = sys.send_args(
                trusted,
                DbMsg::AdminPort { port: admin }.to_value(),
                &SendArgs::new().grant(Label::from_pairs(Level::L3, &[(admin, Level::Star)])),
            );
        }
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        if Some(msg.port) == self.admin_port {
            if let Some(DbMsg::Bind {
                user,
                taint,
                grant,
                reply,
            }) = DbMsg::from_value(&msg.body)
            {
                sys.raise_recv(taint, Level::L3)
                    .expect("Bind arrives with a ⋆ grant for the taint handle");
                self.users.insert(user, Binding { taint, grant });
                // Ack so the binder can release the user's first request.
                if let Some(reply) = reply {
                    let _ = sys.send(reply, DbMsg::BindR.to_value());
                }
            }
            return;
        }
        let Some(cache_msg) = CacheMsg::from_value(&msg.body) else {
            return;
        };
        sys.charge(CACHE_OP_CYCLES);
        match cache_msg {
            CacheMsg::Put { user, key, bytes } => {
                if let Some(binding) = self.write_allowed(&user, &msg.verify) {
                    self.entries.insert(
                        key,
                        Entry {
                            owner_taint: binding.taint,
                            bytes,
                        },
                    );
                }
            }
            CacheMsg::Get { key, reply } => {
                if let Some(entry) = self.entries.get(&key) {
                    // The hit carries the owner's taint at 3: the kernel
                    // decides whether the requester may see it, exactly
                    // like ok-dbproxy rows. A worker for the wrong user
                    // has the hit dropped and observes a plain miss.
                    sys.charge(entry.bytes.len() as u64 * 4);
                    let args = SendArgs::new().contaminate(Label::from_pairs(
                        Level::Star,
                        &[(entry.owner_taint, Level::L3)],
                    ));
                    let _ = sys.send_args(
                        reply,
                        CacheMsg::Hit {
                            key: key.clone(),
                            bytes: entry.bytes.clone(),
                        }
                        .to_value(),
                        &args,
                    );
                }
                // Untainted terminator, hit or miss (§7.5's Done).
                let _ = sys.send(reply, CacheMsg::GetDone { key }.to_value());
            }
            CacheMsg::Evict { user, key } => {
                if self.write_allowed(&user, &msg.verify).is_some() {
                    // Only the owner may evict their entry.
                    if let Some(e) = self.entries.get(&key) {
                        let owner = self.users.get(&user).expect("write_allowed checked");
                        if e.owner_taint == owner.taint {
                            self.entries.remove(&key);
                        }
                    }
                }
            }
            CacheMsg::Hit { .. } | CacheMsg::GetDone { .. } => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Spawn info for a running cache.
pub struct CacheHandle {
    /// The cache's process id.
    pub pid: ProcessId,
    /// Its worker-facing port.
    pub port: Handle,
}

/// Spawns the shared cache (idd's `CACHE_TRUSTED_ENV` port must already be
/// published — i.e. spawn after idd).
pub fn spawn_cache(kernel: &mut Kernel) -> CacheHandle {
    let pid = kernel.spawn("ok-cache", Category::Okws, Box::new(OkCache::new()));
    let port = kernel
        .global_env(CACHE_PORT_ENV)
        .and_then(|v| v.as_handle())
        .expect("cache publishes its worker port");
    CacheHandle { pid, port }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = Handle::from_raw(3);
        let msgs = vec![
            CacheMsg::Put {
                user: "u".into(),
                key: "k".into(),
                bytes: vec![1].into(),
            },
            CacheMsg::Get {
                key: "k".into(),
                reply: h,
            },
            CacheMsg::Hit {
                key: "k".into(),
                bytes: vec![2].into(),
            },
            CacheMsg::GetDone { key: "k".into() },
            CacheMsg::Evict {
                user: "u".into(),
                key: "k".into(),
            },
        ];
        for m in msgs {
            assert_eq!(CacheMsg::from_value(&m.to_value()), Some(m));
        }
    }
}
