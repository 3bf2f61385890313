//! The generic OKWS worker: event-process machinery around a
//! [`WorkerLogic`] (§7.2 steps 7–9, §7.3).
//!
//! Every user session is one event process. Its state lives entirely in
//! event-process memory (the kernel isolates it); the `Worker` itself holds
//! only immutable configuration, which is why [`EpService::on_event`] can
//! take `&self`.
//!
//! ## Event-process memory layout
//!
//! | Address | Contents | Lifetime |
//! |---|---|---|
//! | `0x40000` | session page: state tag, `uC`/`uW`/credential handles, user name, and the logic's session area from `+0x100` | persists (the Figure 6 "cached session" page) |
//! | `0x50000` | raw request bytes | cleaned per request |
//! | `0x60000` | accumulated DB rows | cleaned per request |
//! | `0x70000` | emulated stack/heap scratch | cleaned per request |
//!
//! A tidy worker calls `ep_clean` on the three scratch regions before
//! yielding, leaving exactly one private page per cached session; the
//! Figure 6 "active session" experiment disables the cleanup.

use asbestos_db::{read_rows, DbMsg, SqlValue};
use asbestos_kernel::{EpService, Handle, Label, Level, Message, SendArgs, Sys, Value};
use asbestos_net::{http, parse_request, HttpRequest, NetMsg};

use crate::logic::{Action, SessionStore, WorkerLogic};
use crate::proto::OkwsMsg;

/// Session page base address.
pub const SESSION_PAGE: u64 = 0x40000;
/// Request buffer base address (scratch).
pub const REQUEST_BUF: u64 = 0x50000;
/// DB row buffer base address (scratch).
pub const ROWS_BUF: u64 = 0x60000;
/// Emulated stack/heap scratch base address.
pub const SCRATCH: u64 = 0x70000;
/// Size of each scratch region in bytes (16 pages).
pub const SCRATCH_REGION: usize = 16 * 4096;
/// Offset of the logic's session area within the session page.
pub const SESSION_DATA_OFF: u64 = 0x100;
/// Capacity offered to logic session storage.
pub const SESSION_CAPACITY: usize = 16 * 4096;

// Offsets within the session page.
const OFF_STATE: u64 = 0x00;
const OFF_UC: u64 = 0x08;
const OFF_UW: u64 = 0x10;
const OFF_TAINT: u64 = 0x18;
const OFF_GRANT: u64 = 0x20;
const OFF_USER_LEN: u64 = 0x28;
const OFF_USER: u64 = 0x30; // up to 64 bytes
const OFF_REQ_LEN: u64 = 0x78;
// Pending-connection queue: concurrent connections to one session are
// served in arrival order (count at 0x80, then up to 14 uC values).
const OFF_PENDING_COUNT: u64 = 0x80;
const OFF_PENDING: u64 = 0x88;
const PENDING_MAX: u64 = 14;

// State-machine tags.
const ST_IDLE: u64 = 0;
const ST_AWAIT_REQUEST: u64 = 1;
const ST_AWAIT_DB_ROWS: u64 = 2;
const ST_AWAIT_DB_EXEC: u64 = 3;
const ST_AWAIT_CACHE: u64 = 4;
/// Logged out, waiting for ok-demux's [`OkwsMsg::SessionEndR`] before
/// `ep_exit`: handoffs ok-demux sent before it dropped the session-table
/// entry are still in flight on `uW`, and exiting under them would strand
/// their connections (dropped `NoPort`, the client never sees a close).
/// While draining, every arriving or queued connection is shed.
const ST_DRAINING: u64 = 5;

/// Environment key prefix for worker service ports.
pub fn worker_port_env(service: &str) -> String {
    format!("okws.worker.{service}.port")
}

/// An OKWS worker process.
pub struct Worker {
    service: String,
    logic: Box<dyn WorkerLogic>,
    /// Whether to `ep_clean` scratch state after each request (§7.3); the
    /// Figure 6 active-session experiment sets this to false.
    tidy: bool,
    /// Emulated stack/temporary pages touched per request (§9.1 observed
    /// 8 active pages: stack, message queue, heap, globals).
    touch_pages: usize,
}

impl Worker {
    /// Creates a worker for `service` running `logic`.
    pub fn new(service: &str, logic: Box<dyn WorkerLogic>) -> Worker {
        Worker {
            service: service.to_string(),
            logic,
            tidy: true,
            // 2 emulated stack pages + 5 heap/global pages, matching the
            // §9.1 accounting of an active session's scratch state.
            touch_pages: 7,
        }
    }

    /// Disables per-request cleanup (Figure 6's worst-case experiment:
    /// "modified the worker so that it does not ever unmap memory, call
    /// ep_clean or call ep_exit").
    pub fn untidy(mut self) -> Worker {
        self.tidy = false;
        self
    }

    // ------------------------------------------------------------------
    // Memory helpers.
    // ------------------------------------------------------------------

    fn read_u64(sys: &Sys<'_>, addr: u64) -> u64 {
        sys.mem_read_u64(addr)
            .expect("worker memory reads stay in range")
    }

    fn write_u64(sys: &mut Sys<'_>, addr: u64, v: u64) {
        sys.mem_write_u64(addr, v)
            .expect("worker memory writes stay in range");
    }

    fn read_handle(sys: &Sys<'_>, addr: u64) -> Handle {
        Handle::from_raw(Self::read_u64(sys, addr))
    }

    fn store_user(sys: &mut Sys<'_>, user: &str) {
        let bytes = &user.as_bytes()[..user.len().min(64)];
        Self::write_u64(sys, OFF_USER_LEN + SESSION_PAGE, bytes.len() as u64);
        if !bytes.is_empty() {
            sys.mem_write(OFF_USER + SESSION_PAGE, bytes)
                .expect("user name fits the session page");
        }
    }

    fn load_user(sys: &Sys<'_>) -> String {
        let len = Self::read_u64(sys, OFF_USER_LEN + SESSION_PAGE) as usize;
        if len == 0 {
            return String::new();
        }
        let bytes = sys
            .mem_read(OFF_USER + SESSION_PAGE, len.min(64))
            .expect("user name fits the session page");
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn store_request(sys: &mut Sys<'_>, bytes: &[u8]) {
        let take = bytes.len().min(SCRATCH_REGION);
        Self::write_u64(sys, OFF_REQ_LEN + SESSION_PAGE, take as u64);
        if take > 0 {
            sys.mem_write(REQUEST_BUF, &bytes[..take])
                .expect("request fits the request buffer");
        }
    }

    fn load_request(sys: &Sys<'_>) -> Option<HttpRequest> {
        let len = Self::read_u64(sys, OFF_REQ_LEN + SESSION_PAGE) as usize;
        if len == 0 {
            return None;
        }
        let bytes = sys
            .mem_read(REQUEST_BUF, len)
            .expect("stored request readable");
        parse_request(&bytes).ok()
    }

    /// Emulates the stack/heap writes a real worker scatters across pages
    /// while processing a request (§6.2, §9.1).
    fn touch_scratch(&self, sys: &mut Sys<'_>) {
        for page in 0..self.touch_pages {
            sys.mem_write(SCRATCH + (page as u64) * 4096, &[0x5a]).ok();
        }
    }

    fn cleanup(&self, sys: &mut Sys<'_>) {
        if self.tidy {
            // §7.3: "event processes should typically call ep_clean before
            // yielding to discard all pages modified since the checkpoint
            // that do not hold session data; this will typically include
            // the stack."
            let _ = sys.ep_clean(REQUEST_BUF, SCRATCH_REGION);
            let _ = sys.ep_clean(ROWS_BUF, SCRATCH_REGION);
            let _ = sys.ep_clean(SCRATCH, SCRATCH_REGION);
        }
    }

    // ------------------------------------------------------------------
    // Row buffer: the rows of every `DbMsg::Rows` between DbQuery and
    // Done, laid end to end in `asbestos_db::put_row`'s encoding from
    // ROWS_BUF + 16. ROWS_BUF + 8 holds the end offset; the 16-byte header
    // is the cache hit's (flag, length) one.
    // ------------------------------------------------------------------

    fn rows_reset(sys: &mut Sys<'_>) {
        Self::write_u64(sys, ROWS_BUF + 8, 16);
    }

    /// Appends one `Rows` payload: one write when it fits. When it does
    /// not, each row that still fits is kept, in order, exactly as if the
    /// rows had arrived one at a time.
    fn rows_append(sys: &mut Sys<'_>, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let mut end = Self::read_u64(sys, ROWS_BUF + 8) as usize;
        if end + bytes.len() <= SCRATCH_REGION {
            sys.mem_write(ROWS_BUF + end as u64, bytes)
                .expect("bounds checked above");
            end += bytes.len();
        } else {
            for (_, span) in read_rows(bytes) {
                if end + span.len() <= SCRATCH_REGION {
                    sys.mem_write(ROWS_BUF + end as u64, &bytes[span.clone()])
                        .expect("bounds checked above");
                    end += span.len();
                }
            }
        }
        Self::write_u64(sys, ROWS_BUF + 8, end as u64);
    }

    fn rows_load(sys: &Sys<'_>) -> Vec<Vec<SqlValue>> {
        let end = Self::read_u64(sys, ROWS_BUF + 8);
        if end <= 16 {
            return Vec::new();
        }
        let bytes = sys
            .mem_read(ROWS_BUF + 16, (end - 16) as usize)
            .expect("row buffer readable");
        read_rows(&bytes).map(|(row, _)| row).collect()
    }

    // ------------------------------------------------------------------
    // Protocol steps.
    // ------------------------------------------------------------------

    fn begin_connection(
        &self,
        sys: &mut Sys<'_>,
        conn: Handle,
        user: &str,
        taint: Handle,
        grant: Handle,
    ) {
        // A session event process serves one request at a time; connections
        // arriving mid-request wait in the pending queue (served from
        // `respond`). Beyond the queue bound — or after logout, while the
        // session drains — the connection is shed: the client sees a drop,
        // never another user's data.
        let state = Self::read_u64(sys, SESSION_PAGE + OFF_STATE);
        if state == ST_DRAINING {
            Self::shed_conn(sys, conn);
            return;
        }
        if state != ST_IDLE {
            let count = Self::read_u64(sys, SESSION_PAGE + OFF_PENDING_COUNT);
            if count < PENDING_MAX {
                Self::write_u64(sys, SESSION_PAGE + OFF_PENDING + 8 * count, conn.raw());
                Self::write_u64(sys, SESSION_PAGE + OFF_PENDING_COUNT, count + 1);
            } else {
                Self::shed_conn(sys, conn);
            }
            return;
        }
        Self::write_u64(sys, SESSION_PAGE + OFF_UC, conn.raw());
        Self::write_u64(sys, SESSION_PAGE + OFF_TAINT, taint.raw());
        Self::write_u64(sys, SESSION_PAGE + OFF_GRANT, grant.raw());
        Self::store_user(sys, user);

        let uw = if sys.is_new_ep() {
            // §7.2 step 8 / §7.3: make the session port and register it
            // with ok-demux (granted at ⋆ so the session table can route
            // future connections straight to this event process).
            let uw = sys.new_port(Label::top());
            Self::write_u64(sys, SESSION_PAGE + OFF_UW, uw.raw());
            let demux = sys
                .env("okws.demux.port")
                .and_then(|v| v.as_handle())
                .expect("ok-demux publishes its control port");
            let _ = sys.send_args(
                demux,
                OkwsMsg::SessionNew {
                    user: user.to_string(),
                    service: self.service.clone(),
                    port: uw,
                }
                .to_value(),
                &SendArgs::new().verify(grant_proof(grant)).grant(star(uw)),
            );
            uw
        } else {
            Self::read_handle(sys, SESSION_PAGE + OFF_UW)
        };

        // §7.2 step 8: read the user's request via uC, replies to uW
        // (granting netd ⋆ for uW so its tainted replies can arrive).
        let _ = sys.send_args(
            conn,
            NetMsg::Read {
                max: SCRATCH_REGION as u64,
                reply: uw,
                peek: false,
            }
            .to_value(),
            &SendArgs::new().grant(star(uw)),
        );
        Self::write_u64(sys, SESSION_PAGE + OFF_STATE, ST_AWAIT_REQUEST);
        self.touch_scratch(sys);
    }

    /// Closes `conn` unserved: the client observes the closed-empty shed
    /// signature and retries. Best-effort like the sends in `respond`;
    /// the uC ⋆ is released either way so the send label does not grow
    /// per shed connection.
    fn shed_conn(sys: &mut Sys<'_>, conn: Handle) {
        let _ = sys.send(conn, NetMsg::Close.to_value());
        sys.self_contaminate(&Label::from_pairs(Level::Star, &[(conn, Level::L1)]));
    }

    /// Writes the HTTP response on the current connection, closes it, and
    /// releases its uC ⋆. State-machine continuation is the caller's.
    fn send_response(&self, sys: &mut Sys<'_>, status: u16, body: &[u8]) {
        let conn = Self::read_handle(sys, SESSION_PAGE + OFF_UC);
        let reason = if status == 200 { "OK" } else { "Error" };
        let response = http::build_response(status, reason, body);
        // Both sends are best-effort: `send` says nothing about delivery
        // (§4), and without decontamination arguments it cannot fail. A
        // full netd port drops either silently (§8); if only the Write is
        // lost, the client observes the closed-empty shed signature and
        // retries.
        let _ = sys.send(conn, NetMsg::Write { bytes: response }.to_value());
        let _ = sys.send(conn, NetMsg::Close.to_value());
        // Release the connection capability (§9.3): cached sessions span
        // many connections, and without this the event process's send label
        // would grow by one uC ⋆ per connection served.
        sys.self_contaminate(&Label::from_pairs(Level::Star, &[(conn, Level::L1)]));
    }

    fn respond(&self, sys: &mut Sys<'_>, status: u16, body: &[u8]) {
        self.send_response(sys, status, body);
        Self::write_u64(sys, SESSION_PAGE + OFF_STATE, ST_IDLE);
        self.cleanup(sys);
        // Serve the next queued connection, if any arrived mid-request.
        let count = Self::read_u64(sys, SESSION_PAGE + OFF_PENDING_COUNT);
        if count > 0 {
            let next = Handle::from_raw(Self::read_u64(sys, SESSION_PAGE + OFF_PENDING));
            for i in 1..count {
                let v = Self::read_u64(sys, SESSION_PAGE + OFF_PENDING + 8 * i);
                Self::write_u64(sys, SESSION_PAGE + OFF_PENDING + 8 * (i - 1), v);
            }
            Self::write_u64(sys, SESSION_PAGE + OFF_PENDING_COUNT, count - 1);
            let user = Self::load_user(sys);
            let taint = Self::read_handle(sys, SESSION_PAGE + OFF_TAINT);
            let grant = Self::read_handle(sys, SESSION_PAGE + OFF_GRANT);
            self.begin_connection(sys, next, &user, taint, grant);
        }
    }

    fn run_action(&self, sys: &mut Sys<'_>, action: Action) {
        match action {
            Action::Respond { body, status } => self.respond(sys, status, &body),
            Action::RespondAndLogout { body } => {
                // Answer the logout itself, then shed (rather than serve)
                // every queued connection: the session is over, and each
                // shed client retries into a fresh login.
                self.send_response(sys, 200, &body);
                self.cleanup(sys);
                let count = Self::read_u64(sys, SESSION_PAGE + OFF_PENDING_COUNT);
                for i in 0..count {
                    let queued =
                        Handle::from_raw(Self::read_u64(sys, SESSION_PAGE + OFF_PENDING + 8 * i));
                    Self::shed_conn(sys, queued);
                }
                Self::write_u64(sys, SESSION_PAGE + OFF_PENDING_COUNT, 0);
                Self::write_u64(sys, SESSION_PAGE + OFF_STATE, ST_DRAINING);
                let user = Self::load_user(sys);
                let grant = Self::read_handle(sys, SESSION_PAGE + OFF_GRANT);
                if let Some(demux) = sys.env("okws.demux.port").and_then(|v| v.as_handle()) {
                    let _ = sys.send_args(
                        demux,
                        OkwsMsg::SessionEnd {
                            user,
                            service: self.service.clone(),
                        }
                        .to_value(),
                        &SendArgs::new().verify(grant_proof(grant)),
                    );
                }
                // §7.3: "u's worker event processes call ep_exit" — but
                // only once ok-demux acks SessionEndR (see ST_DRAINING):
                // exiting now would strand handoffs already in flight.
            }
            Action::DbQuery { sql, params } => {
                let db = sys
                    .env(asbestos_db::DB_PORT_ENV)
                    .and_then(|v| v.as_handle())
                    .expect("ok-dbproxy publishes its port");
                let uw = Self::read_handle(sys, SESSION_PAGE + OFF_UW);
                Self::rows_reset(sys);
                Self::write_u64(sys, SESSION_PAGE + OFF_STATE, ST_AWAIT_DB_ROWS);
                // Grant the proxy ⋆ for uW so the (tainted) rows can land.
                let _ = sys.send_args(
                    db,
                    DbMsg::Query {
                        sql,
                        params,
                        reply: uw,
                    }
                    .to_value(),
                    &SendArgs::new().grant(star(uw)),
                );
            }
            Action::DbExec { sql, params } => {
                let db = sys
                    .env(asbestos_db::DB_PORT_ENV)
                    .and_then(|v| v.as_handle())
                    .expect("ok-dbproxy publishes its port");
                let uw = Self::read_handle(sys, SESSION_PAGE + OFF_UW);
                let user = Self::load_user(sys);
                let v = Self::credential_label(sys);
                Self::write_u64(sys, SESSION_PAGE + OFF_STATE, ST_AWAIT_DB_EXEC);
                let _ = sys.send_args(
                    db,
                    DbMsg::Exec {
                        user,
                        sql,
                        params,
                        reply: Some(uw),
                    }
                    .to_value(),
                    &SendArgs::new().verify(v).grant(star(uw)),
                );
            }
            Action::ChangePassword { new_password } => {
                let Some(idd) = sys
                    .env(crate::idd::IDD_PORT_ENV)
                    .and_then(|v| v.as_handle())
                else {
                    self.respond(sys, 503, b"idd unavailable");
                    return;
                };
                let uw = Self::read_handle(sys, SESSION_PAGE + OFF_UW);
                let user = Self::load_user(sys);
                let v = Self::credential_label(sys);
                // idd replies with an ExecR-shaped outcome to uW; the grant
                // lets idd hand our reply port to ok-dbproxy.
                Self::write_u64(sys, SESSION_PAGE + OFF_STATE, ST_AWAIT_DB_EXEC);
                let _ = sys.send_args(
                    idd,
                    OkwsMsg::ChangePassword {
                        user,
                        new_password,
                        reply: uw,
                    }
                    .to_value(),
                    &SendArgs::new().verify(v).grant(star(uw)),
                );
            }
            Action::CacheGet { key } => {
                let Some(cache) = sys
                    .env(crate::cache::CACHE_PORT_ENV)
                    .and_then(|v| v.as_handle())
                else {
                    self.respond(sys, 503, b"cache not deployed");
                    return;
                };
                let uw = Self::read_handle(sys, SESSION_PAGE + OFF_UW);
                // The hit buffer reuses the DB row scratch region: mark "no
                // hit yet"; a (deliverable) Hit fills it before GetDone.
                Self::write_u64(sys, ROWS_BUF, 0);
                Self::write_u64(sys, SESSION_PAGE + OFF_STATE, ST_AWAIT_CACHE);
                let _ = sys.send_args(
                    cache,
                    crate::cache::CacheMsg::Get { key, reply: uw }.to_value(),
                    &SendArgs::new().grant(star(uw)),
                );
            }
            Action::CachePutAndRespond { key, bytes, body } => {
                if let Some(cache) = sys
                    .env(crate::cache::CACHE_PORT_ENV)
                    .and_then(|v| v.as_handle())
                {
                    let user = Self::load_user(sys);
                    let v = Self::credential_label(sys);
                    let _ = sys.send_args(
                        cache,
                        crate::cache::CacheMsg::Put {
                            user,
                            key,
                            bytes: bytes.into(),
                        }
                        .to_value(),
                        &SendArgs::new().verify(v),
                    );
                }
                self.respond(sys, 200, &body);
            }
        }
    }

    /// The §7.5 credential label: `V = {uT <own level>, uG 0, 2}`. A
    /// declassifier holds uT at ⋆ and proves it the same way (§7.6).
    fn credential_label(sys: &Sys<'_>) -> Label {
        let taint = Self::read_handle(sys, SESSION_PAGE + OFF_TAINT);
        let grant = Self::read_handle(sys, SESSION_PAGE + OFF_GRANT);
        let my_taint_level = sys.send_level(taint);
        Label::from_pairs(Level::L2, &[(taint, my_taint_level), (grant, Level::L0)])
    }
}

impl EpService for Worker {
    fn on_base_start(&mut self, sys: &mut Sys<'_>) {
        // The public service port. Open: possession of a connection
        // capability (uC ⋆), not port secrecy, is what protects users.
        let port = sys.new_port(Label::top());
        sys.set_port_label(port, Label::top())
            .expect("creator owns the port");
        sys.publish_env(&worker_port_env(&self.service), Value::Handle(port));
    }

    fn on_event(&self, sys: &mut Sys<'_>, msg: &Message) {
        sys.charge(15_000); // dispatch overhead
        match OkwsMsg::from_value(&msg.body) {
            // Launcher activation: register with ok-demux, then discard
            // this throwaway event process (§7.1).
            Some(OkwsMsg::Activate { service, verify }) => {
                if service == self.service {
                    let demux = sys
                        .env("okws.demux.reg")
                        .and_then(|v| v.as_handle())
                        .expect("ok-demux publishes its registration port");
                    let port = sys
                        .env(&worker_port_env(&self.service))
                        .and_then(|v| v.as_handle())
                        .expect("our base start published the service port");
                    let v = Label::from_pairs(Level::L3, &[(verify, Level::L0)]);
                    let _ = sys.send_args(
                        demux,
                        OkwsMsg::Register {
                            service: self.service.clone(),
                            port,
                        }
                        .to_value(),
                        &SendArgs::new().verify(v),
                    );
                }
                let _ = sys.ep_exit();
                return;
            }
            Some(OkwsMsg::ConnHandoff {
                conn,
                user,
                taint,
                grant,
            }) => {
                self.begin_connection(sys, conn, &user, taint, grant);
                return;
            }
            Some(OkwsMsg::SessionEndR) => {
                // ok-demux dropped our session entry; every handoff it sent
                // beforehand has been shed above (same per-port FIFO), so the
                // drain is complete (§7.3: "u's worker event processes call
                // ep_exit").
                if Self::read_u64(sys, SESSION_PAGE + OFF_STATE) == ST_DRAINING {
                    let _ = sys.ep_exit();
                }
                return;
            }
            _ => {}
        }

        let state = Self::read_u64(sys, SESSION_PAGE + OFF_STATE);
        match (
            state,
            NetMsg::from_value(&msg.body),
            DbMsg::from_value(&msg.body),
        ) {
            (ST_AWAIT_REQUEST, Some(NetMsg::ReadR { bytes }), _) => {
                Self::store_request(sys, &bytes);
                let Some(req) = Self::load_request(sys) else {
                    self.respond(sys, 400, b"bad request");
                    return;
                };
                sys.charge(self.logic.request_cycles());
                let action = {
                    let mut store = EpSessionStore { sys };
                    self.logic.on_request(&mut store, &req)
                };
                self.run_action(sys, action);
            }
            (ST_AWAIT_DB_ROWS, _, Some(DbMsg::Rows { bytes })) => {
                Self::rows_append(sys, &bytes);
            }
            (ST_AWAIT_DB_ROWS, _, Some(DbMsg::Done)) => {
                let rows = Self::rows_load(sys);
                let Some(req) = Self::load_request(sys) else {
                    self.respond(sys, 500, b"lost request");
                    return;
                };
                let action = {
                    let mut store = EpSessionStore { sys };
                    self.logic.on_db_rows(&mut store, &req, &rows)
                };
                self.run_action(sys, action);
            }
            (ST_AWAIT_DB_EXEC, _, Some(DbMsg::ExecR { ok, affected })) => {
                let Some(req) = Self::load_request(sys) else {
                    self.respond(sys, 500, b"lost request");
                    return;
                };
                let action = {
                    let mut store = EpSessionStore { sys };
                    self.logic.on_db_exec(&mut store, &req, ok, affected)
                };
                self.run_action(sys, action);
            }
            (ST_AWAIT_CACHE, _, _) => {
                match crate::cache::CacheMsg::from_value(&msg.body) {
                    Some(crate::cache::CacheMsg::Hit { bytes, .. }) => {
                        // Buffer the (deliverable) hit until the terminator.
                        let take = bytes.len().min(SCRATCH_REGION - 16);
                        Self::write_u64(sys, ROWS_BUF, 1);
                        Self::write_u64(sys, ROWS_BUF + 8, take as u64);
                        if take > 0 {
                            sys.mem_write(ROWS_BUF + 16, &bytes[..take])
                                .expect("bounded above");
                        }
                    }
                    Some(crate::cache::CacheMsg::GetDone { key }) => {
                        let bytes = if Self::read_u64(sys, ROWS_BUF) == 1 {
                            let len = Self::read_u64(sys, ROWS_BUF + 8) as usize;
                            Some(sys.mem_read(ROWS_BUF + 16, len).unwrap_or_default())
                        } else {
                            None
                        };
                        let Some(req) = Self::load_request(sys) else {
                            self.respond(sys, 500, b"lost request");
                            return;
                        };
                        let action = {
                            let mut store = EpSessionStore { sys };
                            self.logic.on_cache(&mut store, &req, &key, bytes)
                        };
                        self.run_action(sys, action);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

/// [`SessionStore`] backed by the event process's session page region.
struct EpSessionStore<'a, 'k> {
    sys: &'a mut Sys<'k>,
}

impl SessionStore for EpSessionStore<'_, '_> {
    fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        assert!(
            offset as usize + len <= SESSION_CAPACITY,
            "session read out of range"
        );
        self.sys
            .mem_read(SESSION_PAGE + SESSION_DATA_OFF + offset, len)
            .expect("bounds asserted above")
    }

    fn write(&mut self, offset: u64, data: &[u8]) {
        assert!(
            offset as usize + data.len() <= SESSION_CAPACITY,
            "session write out of range"
        );
        self.sys
            .mem_write(SESSION_PAGE + SESSION_DATA_OFF + offset, data)
            .expect("bounds asserted above");
    }

    fn capacity(&self) -> usize {
        SESSION_CAPACITY
    }
}

fn star(h: Handle) -> Label {
    Label::from_pairs(Level::L3, &[(h, Level::Star)])
}

/// `V = {uG 0, 3}`: proof that the sender speaks for the user whose grant
/// handle `uG` it holds at ⋆ (§7.5), which ok-demux requires of session
/// events.
fn grant_proof(grant: Handle) -> Label {
    Label::from_pairs(Level::L3, &[(grant, Level::L0)])
}
