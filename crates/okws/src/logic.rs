//! Worker service logic.
//!
//! A worker process is the generic event-process machinery of
//! [`crate::worker`]; what distinguishes `/store` from `/bench` is a
//! [`WorkerLogic`] implementation. Logic is written continuation-style:
//! a request handler returns an [`Action`], and if the action was a
//! database operation the follow-up callback fires when the result set
//! completes (exactly the shape of the paper's event-driven servers, §6).
//!
//! Logic methods are `&self` and receive a [`SessionStore`] view for state:
//! per-user state must live in event-process memory, where the kernel
//! isolates it — that is the whole point of §6.

use asbestos_db::SqlValue;
use asbestos_net::HttpRequest;

/// What a logic handler wants done next.
#[derive(Debug)]
pub enum Action {
    /// Send this HTTP response body (a 200 unless `status` overrides) and
    /// finish the request.
    Respond {
        /// Response body bytes.
        body: Vec<u8>,
        /// HTTP status.
        status: u16,
    },
    /// Run a SELECT through ok-dbproxy; [`WorkerLogic::on_db_rows`] fires
    /// with the visible rows once the untainted `Done` arrives (the rows
    /// come in one message per owner the kernel let through).
    DbQuery {
        /// SQL text (`?` placeholders allowed).
        sql: String,
        /// Bound parameters.
        params: Vec<SqlValue>,
    },
    /// Run a write through ok-dbproxy with the worker's user credentials;
    /// [`WorkerLogic::on_db_exec`] fires with the outcome.
    DbExec {
        /// SQL text.
        sql: String,
        /// Bound parameters.
        params: Vec<SqlValue>,
    },
    /// Respond, then end this session: notify ok-demux and `ep_exit`.
    RespondAndLogout {
        /// Response body.
        body: Vec<u8>,
    },
    /// Change this user's password through idd (§7's third standard
    /// worker); [`WorkerLogic::on_db_exec`] fires with the outcome.
    ChangePassword {
        /// The replacement password.
        new_password: String,
    },
    /// Look up a key in the shared cache (§2's isolated shared cache);
    /// [`WorkerLogic::on_cache`] fires with the (label-filtered) result.
    CacheGet {
        /// Cache key.
        key: String,
    },
    /// Store into the shared cache under this user's ownership, then
    /// respond — cache fills piggyback on responses, so no callback.
    CachePutAndRespond {
        /// Cache key.
        key: String,
        /// Bytes to cache.
        bytes: Vec<u8>,
        /// Response body.
        body: Vec<u8>,
    },
}

impl Action {
    /// A plain 200 response.
    pub fn ok(body: impl Into<Vec<u8>>) -> Action {
        Action::Respond {
            body: body.into(),
            status: 200,
        }
    }

    /// An error response.
    pub fn error(status: u16, msg: &str) -> Action {
        Action::Respond {
            body: msg.as_bytes().to_vec(),
            status,
        }
    }
}

/// Byte-range view over the event process's session memory, provided to
/// logic callbacks by the worker machinery.
pub trait SessionStore {
    /// Reads `len` bytes at `offset` within the session area.
    fn read(&self, offset: u64, len: usize) -> Vec<u8>;
    /// Writes bytes at `offset` within the session area.
    fn write(&mut self, offset: u64, data: &[u8]);
    /// Bytes available in the session area.
    fn capacity(&self) -> usize;
}

/// Application logic for one OKWS service.
pub trait WorkerLogic: 'static {
    /// Handles a parsed HTTP request.
    fn on_request(&self, session: &mut dyn SessionStore, req: &HttpRequest) -> Action;

    /// Handles the completion of an [`Action::DbQuery`]. `rows` holds only
    /// the rows the kernel let through (own + declassified).
    fn on_db_rows(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        _rows: &[Vec<SqlValue>],
    ) -> Action {
        Action::error(500, "unexpected database rows")
    }

    /// Handles the completion of an [`Action::DbExec`] (also used for
    /// [`Action::ChangePassword`], whose outcome has the same shape).
    fn on_db_exec(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        _ok: bool,
        _affected: u64,
    ) -> Action {
        Action::error(500, "unexpected database result")
    }

    /// Handles the completion of an [`Action::CacheGet`]. `bytes` is `None`
    /// on a miss — or when the entry belongs to another user and the kernel
    /// dropped it (deliberately indistinguishable; the §7.5 pattern).
    fn on_cache(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        _key: &str,
        _bytes: Option<Vec<u8>>,
    ) -> Action {
        Action::error(500, "unexpected cache result")
    }

    /// Cycles of simulated user-space compute per request (the service's
    /// own work, charged to the OKWS category).
    fn request_cycles(&self) -> u64 {
        150_000
    }
}

// ---------------------------------------------------------------------
// The paper's evaluation services.
// ---------------------------------------------------------------------

/// §9.1's toy service: "stores data from a user's HTTP request and returns
/// it to the user in the subsequent request. The size of the response is
/// about 1K."
pub struct EchoStore {
    /// Bytes of session state kept per user (the paper's ≈1 KiB).
    pub state_bytes: usize,
}

impl EchoStore {
    /// Creates the service with the paper's ~1 KiB state size.
    pub fn new() -> EchoStore {
        EchoStore { state_bytes: 1024 }
    }
}

impl Default for EchoStore {
    fn default() -> EchoStore {
        EchoStore::new()
    }
}

impl WorkerLogic for EchoStore {
    fn on_request(&self, session: &mut dyn SessionStore, req: &HttpRequest) -> Action {
        if req.param("logout").is_some() {
            return Action::RespondAndLogout {
                body: b"goodbye".to_vec(),
            };
        }
        // Previous state goes back to the user.
        let len_bytes = session.read(0, 4);
        let prev_len = u32::from_le_bytes(len_bytes.try_into().expect("read 4 bytes")) as usize;
        let previous = if prev_len == 0 {
            Vec::new()
        } else {
            session.read(4, prev_len.min(self.state_bytes))
        };
        // New data (padded to ~1 KiB, like a real profile blob) replaces it.
        if let Some(data) = req.param("data") {
            let mut blob = data.as_bytes().to_vec();
            blob.resize(self.state_bytes, b'.');
            session.write(0, &(blob.len() as u32).to_le_bytes());
            session.write(4, &blob);
        }
        Action::ok(previous)
    }
}

/// §9.2's benchmark service: "responds with a string of characters whose
/// length depends on the client's parameters". With `len=11` the full
/// response is the paper's 144 bytes.
pub struct ParamLength;

impl WorkerLogic for ParamLength {
    fn on_request(&self, _session: &mut dyn SessionStore, req: &HttpRequest) -> Action {
        let len: usize = req.param("len").and_then(|l| l.parse().ok()).unwrap_or(11);
        Action::ok(vec![b'x'; len])
    }

    fn request_cycles(&self) -> u64 {
        400_000
    }
}

/// The password-change service (§7's third standard worker: "one each for
/// logging in, retrieving data, and changing a password").
pub struct Passwd;

impl WorkerLogic for Passwd {
    fn on_request(&self, _session: &mut dyn SessionStore, req: &HttpRequest) -> Action {
        match req.param("new") {
            Some(new) if !new.is_empty() => Action::ChangePassword {
                new_password: new.to_string(),
            },
            _ => Action::error(400, "need new="),
        }
    }

    fn on_db_exec(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        ok: bool,
        _affected: u64,
    ) -> Action {
        if ok {
            Action::ok(&b"password changed"[..])
        } else {
            Action::error(403, "password change refused")
        }
    }
}

/// A cache-accelerated profile reader: `?get=<user>` checks the shared
/// cache first and falls back to the database, filling the cache on the
/// way out (§2's shared-cache pattern). Writes go through [`Profile`].
pub struct CachedProfile;

impl WorkerLogic for CachedProfile {
    fn on_request(&self, _session: &mut dyn SessionStore, req: &HttpRequest) -> Action {
        match req.param("get") {
            Some(who) => Action::CacheGet {
                key: format!("profile:{who}"),
            },
            None => Action::error(400, "need get="),
        }
    }

    fn on_cache(
        &self,
        _session: &mut dyn SessionStore,
        req: &HttpRequest,
        _key: &str,
        bytes: Option<Vec<u8>>,
    ) -> Action {
        match bytes {
            Some(hit) => Action::ok(hit),
            None => Action::DbQuery {
                sql: "SELECT owner, bio FROM profiles WHERE owner = ?".into(),
                params: vec![SqlValue::Text(req.param("get").unwrap_or("").to_string())],
            },
        }
    }

    fn on_db_rows(
        &self,
        _session: &mut dyn SessionStore,
        req: &HttpRequest,
        rows: &[Vec<SqlValue>],
    ) -> Action {
        let mut body = String::new();
        for row in rows {
            let owner = row.first().and_then(|v| v.as_text()).unwrap_or("?");
            let bio = row.get(1).and_then(|v| v.as_text()).unwrap_or("");
            body.push_str(owner);
            body.push(':');
            body.push_str(bio);
            body.push('\n');
        }
        // Cache our own view for next time. The entry is owned by the
        // *requesting* user, so it can never serve anyone the cache's
        // labels would not allow.
        Action::CachePutAndRespond {
            key: format!("profile:{}", req.param("get").unwrap_or("")),
            bytes: body.clone().into_bytes(),
            body: body.into_bytes(),
        }
    }
}

/// A database-backed profile service: `?set=<bio>` stores the bio as a row
/// owned by the requesting user (or as a declassified row when the worker
/// runs as a §7.6 declassifier); `?get=<user>` reads bios back — label
/// enforcement means a plain worker only ever sees its own user's rows plus
/// declassified ones.
pub struct Profile;

impl Profile {
    /// The service's schema, installed through ok-dbproxy's trusted DDL
    /// path: every read asks `WHERE owner = ?`, so `owner` is indexed.
    pub const TABLE_DDL: &'static str =
        "CREATE TABLE profiles (owner, bio); CREATE INDEX ON profiles (owner)";
}

impl WorkerLogic for Profile {
    fn on_request(&self, _session: &mut dyn SessionStore, req: &HttpRequest) -> Action {
        if let Some(bio) = req.param("set") {
            return Action::DbExec {
                sql: "INSERT INTO profiles VALUES (?, ?)".into(),
                params: vec![
                    SqlValue::Text(req.param("user").unwrap_or("").to_string()),
                    SqlValue::Text(bio.to_string()),
                ],
            };
        }
        if let Some(who) = req.param("get") {
            return Action::DbQuery {
                sql: "SELECT owner, bio FROM profiles WHERE owner = ?".into(),
                params: vec![SqlValue::Text(who.to_string())],
            };
        }
        Action::error(400, "need set= or get=")
    }

    fn on_db_rows(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        rows: &[Vec<SqlValue>],
    ) -> Action {
        let mut body = String::new();
        for row in rows {
            let owner = row.first().and_then(|v| v.as_text()).unwrap_or("?");
            let bio = row.get(1).and_then(|v| v.as_text()).unwrap_or("");
            body.push_str(owner);
            body.push(':');
            body.push_str(bio);
            body.push('\n');
        }
        Action::ok(body.into_bytes())
    }

    fn on_db_exec(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        ok: bool,
        _affected: u64,
    ) -> Action {
        if ok {
            Action::ok(&b"stored"[..])
        } else {
            Action::error(403, "write refused")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbestos_net::parse_request;

    struct MemStore(Vec<u8>);
    impl SessionStore for MemStore {
        fn read(&self, offset: u64, len: usize) -> Vec<u8> {
            self.0[offset as usize..offset as usize + len].to_vec()
        }
        fn write(&mut self, offset: u64, data: &[u8]) {
            self.0[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
        fn capacity(&self) -> usize {
            self.0.len()
        }
    }

    fn req(target: &str) -> HttpRequest {
        parse_request(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes()).unwrap()
    }

    #[test]
    fn echo_store_returns_previous() {
        let logic = EchoStore::new();
        let mut mem = MemStore(vec![0; 4096]);
        let a = logic.on_request(&mut mem, &req("/store?data=first"));
        match a {
            Action::Respond { body, status } => {
                assert_eq!(status, 200);
                assert!(body.is_empty(), "nothing stored yet");
            }
            other => panic!("unexpected action: {other:?}"),
        }
        let a = logic.on_request(&mut mem, &req("/store?data=second"));
        match a {
            Action::Respond { body, .. } => {
                assert!(body.starts_with(b"first"));
                assert_eq!(body.len(), 1024, "padded to ~1K (§9.1)");
            }
            other => panic!("unexpected action: {other:?}"),
        }
    }

    #[test]
    fn echo_store_logout() {
        let logic = EchoStore::new();
        let mut mem = MemStore(vec![0; 4096]);
        assert!(matches!(
            logic.on_request(&mut mem, &req("/store?logout=1")),
            Action::RespondAndLogout { .. }
        ));
    }

    #[test]
    fn param_length_sizes_response() {
        let logic = ParamLength;
        let mut mem = MemStore(vec![0; 16]);
        match logic.on_request(&mut mem, &req("/bench?len=100")) {
            Action::Respond { body, .. } => assert_eq!(body.len(), 100),
            other => panic!("unexpected action: {other:?}"),
        }
        match logic.on_request(&mut mem, &req("/bench")) {
            Action::Respond { body, .. } => assert_eq!(body.len(), 11),
            other => panic!("unexpected action: {other:?}"),
        }
    }

    #[test]
    fn profile_routes_to_db() {
        let logic = Profile;
        let mut mem = MemStore(vec![0; 16]);
        assert!(matches!(
            logic.on_request(&mut mem, &req("/profile?user=u&set=hello")),
            Action::DbExec { .. }
        ));
        assert!(matches!(
            logic.on_request(&mut mem, &req("/profile?get=u")),
            Action::DbQuery { .. }
        ));
        assert!(matches!(
            logic.on_request(&mut mem, &req("/profile")),
            Action::Respond { status: 400, .. }
        ));
        let rows = vec![vec![
            SqlValue::Text("u".into()),
            SqlValue::Text("bio".into()),
        ]];
        match logic.on_db_rows(&mut mem, &req("/profile?get=u"), &rows) {
            Action::Respond { body, .. } => assert_eq!(body, b"u:bio\n"),
            other => panic!("unexpected action: {other:?}"),
        }
    }
}
