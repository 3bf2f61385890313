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
//! | `0x40000` | session page: the `Session` record in `0x00..0x100` (state, `uC`/`uW`/credential handles, user name, connection queue), then the logic's session area | persists (the Figure 6 "cached session" page) |
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

use crate::demux::{DEMUX_PORT_ENV, DEMUX_REG_ENV};
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
/// The longest user name, in bytes, a session record holds;
/// ok-demux refuses longer names before any session exists.
pub const USER_MAX: usize = 64;

/// Where a session event process stands in its protocol (§7.3). The tag
/// is the first word of the [`Session`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Idle = 0,
    AwaitRequest = 1,
    AwaitRows = 2,
    AwaitExec = 3,
    /// Logged out, waiting for ok-demux's [`OkwsMsg::SessionEndR`] before
    /// `ep_exit`: handoffs ok-demux sent before it dropped the session
    /// entry are still in flight on `uW`, and exiting under them would
    /// strand their connections (dropped `NoPort`, the client never sees a
    /// close). While draining, every arriving or queued connection is shed.
    Draining = 5,
}

impl State {
    fn from_tag(tag: u64) -> State {
        match tag {
            1 => State::AwaitRequest,
            2 => State::AwaitRows,
            3 => State::AwaitExec,
            5 => State::Draining,
            _ => State::Idle,
        }
    }
}

/// A session's control state: bytes `0x00..0x100` of the session page,
/// loaded once per event and stored once after a transition.
///
/// | Bytes | Field |
/// |---|---|
/// | `0x00` | [`State`] tag |
/// | `0x08` | `uC`, the connection being served |
/// | `0x10` | `uW`, the session port |
/// | `0x18`, `0x20` | the user's `uT` and `uG` |
/// | `0x28`, `0x30` | user name length, then up to [`USER_MAX`] bytes of it |
/// | `0x78` | length of the request stored at [`REQUEST_BUF`] |
/// | `0x80`, `0x88` | queued connection count, then up to 14 `uC`s |
struct Session {
    state: State,
    conn: Handle,
    port: Handle,
    taint: Handle,
    grant: Handle,
    user: String,
    request_len: usize,
    /// Connections that arrived mid-request, served in arrival order.
    queue: Vec<Handle>,
}

impl Session {
    const SIZE: usize = 0x100;
    const QUEUE_MAX: usize = 14;

    fn load(sys: &Sys<'_>) -> Session {
        let mut rec = [0u8; Session::SIZE];
        sys.mem_read_into(SESSION_PAGE, &mut rec)
            .expect("the session record is in range");
        let (words, _) = rec.as_chunks::<8>();
        let word = |at: usize| u64::from_le_bytes(words[at / 8]);
        let user_len = (word(0x28) as usize).min(USER_MAX);
        let queued = (word(0x80) as usize).min(Session::QUEUE_MAX);
        Session {
            state: State::from_tag(word(0x00)),
            conn: Handle::from_raw(word(0x08)),
            port: Handle::from_raw(word(0x10)),
            taint: Handle::from_raw(word(0x18)),
            grant: Handle::from_raw(word(0x20)),
            user: String::from_utf8_lossy(&rec[0x30..0x30 + user_len]).into_owned(),
            request_len: word(0x78) as usize,
            queue: (0..queued)
                .map(|i| Handle::from_raw(word(0x88 + 8 * i)))
                .collect(),
        }
    }

    fn store(&self, sys: &mut Sys<'_>) {
        let mut rec = [0u8; Session::SIZE];
        let mut put = |at: usize, v: u64| rec[at..at + 8].copy_from_slice(&v.to_le_bytes());
        let user = &self.user.as_bytes()[..self.user.len().min(USER_MAX)];
        put(0x00, self.state as u64);
        put(0x08, self.conn.raw());
        put(0x10, self.port.raw());
        put(0x18, self.taint.raw());
        put(0x20, self.grant.raw());
        put(0x28, user.len() as u64);
        put(0x78, self.request_len as u64);
        put(0x80, self.queue.len() as u64);
        for (i, conn) in self.queue.iter().enumerate() {
            put(0x88 + 8 * i, conn.raw());
        }
        rec[0x30..0x30 + user.len()].copy_from_slice(user);
        sys.mem_write(SESSION_PAGE, &rec)
            .expect("the session record is in range");
    }

    /// The stored request, if it parses.
    fn request(&self, sys: &Sys<'_>) -> Option<HttpRequest> {
        let bytes = sys.mem_read(REQUEST_BUF, self.request_len).ok()?;
        parse_request(&bytes).ok()
    }

    /// The §7.5 credential label: `V = {uT <own level>, uG 0, 2}`. A
    /// declassifier holds uT at ⋆ and proves it the same way (§7.6).
    fn credential_label(&self, sys: &Sys<'_>) -> Label {
        let my_taint_level = sys.send_level(self.taint);
        Label::from_pairs(
            Level::L2,
            &[(self.taint, my_taint_level), (self.grant, Level::L0)],
        )
    }
}

/// A completed wait, with what it hands the logic.
enum Resume {
    /// The request arrived: [`WorkerLogic::on_request`].
    Request,
    /// A query's rows are in: [`WorkerLogic::on_db_rows`].
    Rows(Vec<Vec<SqlValue>>),
    /// A write (or password change) finished: [`WorkerLogic::on_db_exec`].
    Exec { ok: bool, affected: u64 },
}

/// A trusted service a session sends to: the environment key of its
/// port, and the 503 body a session answers when the key names no port.
type Callee = (&'static str, &'static [u8]);

const DB: Callee = (asbestos_db::DB_PORT_ENV, b"database unavailable");
const IDD: Callee = (crate::idd::IDD_PORT_ENV, b"idd unavailable");
const DEMUX: Callee = (DEMUX_PORT_ENV, b"ok-demux unavailable");

/// The port the environment names under `env`, if it names one. Any
/// process may overwrite any key, so a worker takes what it finds: a
/// missing key or a value that is not a handle costs the request its
/// answer, never the worker its life, and a port that is not the trusted
/// service's receives only what the labels let through.
fn env_port(sys: &Sys<'_>, env: &str) -> Option<Handle> {
    sys.env(env).and_then(|v| v.as_handle())
}

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
    /// The public service port, kept from the base start: any process
    /// may overwrite its environment key.
    port: Option<Handle>,
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
            port: None,
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
    // ROWS_BUF + 16. ROWS_BUF + 8 holds the end offset.
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

    fn begin_connection(&self, sys: &mut Sys<'_>, s: &mut Session, conn: Handle) {
        // A session event process serves one request at a time; connections
        // arriving mid-request wait in the queue (served from `respond`).
        // Beyond the queue bound — or after logout, while the session
        // drains — the connection is shed: the client sees a drop, never
        // another user's data.
        match s.state {
            State::Idle => {}
            State::Draining => return Self::shed_conn(sys, conn),
            _ if s.queue.len() < Session::QUEUE_MAX => return s.queue.push(conn),
            _ => return Self::shed_conn(sys, conn),
        }
        s.conn = conn;

        // §7.2 step 8: read the user's request via uC, replies to uW
        // (granting netd ⋆ for uW so its tainted replies can arrive).
        let _ = sys.send_args(
            conn,
            NetMsg::Read {
                max: SCRATCH_REGION as u64,
                reply: s.port,
                peek: false,
            }
            .to_value(),
            &SendArgs::new().grant(star(s.port)),
        );
        s.state = State::AwaitRequest;
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

    /// Writes the HTTP response on `conn`, closes it, and releases its
    /// uC ⋆. State-machine continuation is the caller's.
    fn send_response(&self, sys: &mut Sys<'_>, conn: Handle, status: u16, body: &[u8]) {
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

    fn respond(&self, sys: &mut Sys<'_>, s: &mut Session, status: u16, body: &[u8]) {
        self.send_response(sys, s.conn, status, body);
        s.state = State::Idle;
        self.cleanup(sys);
        // Serve the next queued connection, if any arrived mid-request.
        if !s.queue.is_empty() {
            let next = s.queue.remove(0);
            self.begin_connection(sys, s, next);
        }
    }

    /// Hands the logic the stored request and what `resume` brought, then
    /// runs the action it returns.
    fn resume(&self, sys: &mut Sys<'_>, s: &mut Session, resume: Resume) {
        let Some(req) = s.request(sys) else {
            let (status, body): (u16, &[u8]) = match resume {
                Resume::Request => (400, b"bad request"),
                _ => (500, b"lost request"),
            };
            return self.respond(sys, s, status, body);
        };
        let mut store = EpSessionStore { sys };
        let action = match resume {
            Resume::Request => {
                store.sys.charge(self.logic.request_cycles());
                self.logic.on_request(&mut store, &req)
            }
            Resume::Rows(rows) => self.logic.on_db_rows(&mut store, &req, &rows),
            Resume::Exec { ok, affected } => self.logic.on_db_exec(&mut store, &req, ok, affected),
        };
        self.run_action(sys, s, action);
    }

    /// Sends `body` to `callee`, granting it uW ⋆ for the reply (and
    /// proving `verify`, when given), and waits in `wait`.
    fn call(
        &self,
        sys: &mut Sys<'_>,
        s: &mut Session,
        (env, missing): Callee,
        wait: State,
        body: Value,
        verify: Option<Label>,
    ) {
        let Some(port) = env_port(sys, env) else {
            return self.respond(sys, s, 503, missing);
        };
        if wait == State::AwaitRows {
            Self::rows_reset(sys);
        }
        s.state = wait;
        let mut args = SendArgs::new().grant(star(s.port));
        if let Some(v) = verify {
            args = args.verify(v);
        }
        let _ = sys.send_args(port, body, &args);
    }

    fn run_action(&self, sys: &mut Sys<'_>, s: &mut Session, action: Action) {
        match action {
            Action::Respond { body, status } => self.respond(sys, s, status, &body),
            Action::RespondAndLogout { body } => {
                // Answer the logout itself, then shed (rather than serve)
                // every queued connection: the session is over, and each
                // shed client retries into a fresh login.
                self.send_response(sys, s.conn, 200, &body);
                self.cleanup(sys);
                for queued in s.queue.drain(..) {
                    Self::shed_conn(sys, queued);
                }
                s.state = State::Draining;
                if let Some(demux) = env_port(sys, DEMUX.0) {
                    let _ = sys.send_args(
                        demux,
                        OkwsMsg::SessionEnd {
                            user: s.user.clone(),
                            service: self.service.clone(),
                        }
                        .to_value(),
                        &SendArgs::new().verify(grant_proof(s.grant)),
                    );
                }
                // §7.3: "u's worker event processes call ep_exit" — but
                // only once ok-demux acks SessionEndR (see
                // `State::Draining`): exiting now would strand handoffs
                // already in flight.
            }
            Action::DbQuery { sql, params } => {
                let query = DbMsg::Query {
                    sql,
                    params,
                    reply: s.port,
                };
                self.call(sys, s, DB, State::AwaitRows, query.to_value(), None);
            }
            Action::DbExec { sql, params } => {
                let exec = DbMsg::Exec {
                    user: s.user.clone(),
                    sql,
                    params,
                    reply: Some(s.port),
                };
                let v = s.credential_label(sys);
                self.call(sys, s, DB, State::AwaitExec, exec.to_value(), Some(v));
            }
            Action::ChangePassword { new_password } => {
                // idd replies with an ExecR-shaped outcome to uW; the grant
                // lets idd hand our reply port to ok-dbproxy.
                let change = OkwsMsg::ChangePassword {
                    user: s.user.clone(),
                    new_password,
                    reply: s.port,
                };
                let v = s.credential_label(sys);
                self.call(sys, s, IDD, State::AwaitExec, change.to_value(), Some(v));
            }
        }
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
        self.port = Some(port);
    }

    fn on_event(&self, sys: &mut Sys<'_>, msg: &Message) {
        sys.charge(15_000); // dispatch overhead
        let okws = OkwsMsg::from_value(&msg.body);
        if let Some(OkwsMsg::Activate { service, verify }) = okws {
            // Launcher activation: register with ok-demux, then discard
            // this throwaway event process (§7.1). Without a registration
            // port there is no one to register with.
            let demux = env_port(sys, DEMUX_REG_ENV).filter(|_| service == self.service);
            if let Some(demux) = demux {
                let port = self.port.expect("our base start made the service port");
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

        let mut s = Session::load(sys);
        match okws {
            Some(OkwsMsg::ConnHandoff {
                conn,
                user,
                taint,
                grant,
            }) => {
                if sys.is_new_ep() {
                    // §7.2 step 8 / §7.3: make the session port and
                    // register it with ok-demux (granted at ⋆ so the
                    // session table can route future connections straight
                    // to this event process). With no ok-demux to register
                    // with, answer 503 and leave no event process behind.
                    let Some(demux) = env_port(sys, DEMUX.0) else {
                        self.send_response(sys, conn, 503, DEMUX.1);
                        let _ = sys.ep_exit();
                        return;
                    };
                    (s.user, s.taint, s.grant) = (user, taint, grant);
                    s.port = sys.new_port(Label::top());
                    let _ = sys.send_args(
                        demux,
                        OkwsMsg::SessionNew {
                            user: s.user.clone(),
                            service: self.service.clone(),
                            port: s.port,
                        }
                        .to_value(),
                        &SendArgs::new()
                            .verify(grant_proof(s.grant))
                            .grant(star(s.port)),
                    );
                }
                self.begin_connection(sys, &mut s, conn);
            }
            // Only a handoff (or an activation) starts a session: a stray
            // message on the public port leaves no event process behind.
            _ if sys.is_new_ep() => {
                let _ = sys.ep_exit();
                return;
            }
            // ok-demux dropped our session entry; every handoff it sent
            // beforehand has been shed (same per-port FIFO), so the drain
            // is complete (§7.3: "u's worker event processes call
            // ep_exit").
            Some(OkwsMsg::SessionEndR) if s.state == State::Draining => {
                let _ = sys.ep_exit();
                return;
            }
            Some(_) => return,
            None => match s.state {
                State::AwaitRequest => {
                    let Some(NetMsg::ReadR { bytes }) = NetMsg::from_value(&msg.body) else {
                        return;
                    };
                    let take = bytes.len().min(SCRATCH_REGION);
                    // An empty read writes nothing and parses as nothing.
                    let _ = sys.mem_write(REQUEST_BUF, &bytes[..take]);
                    s.request_len = take;
                    self.resume(sys, &mut s, Resume::Request);
                }
                State::AwaitRows => match DbMsg::from_value(&msg.body) {
                    Some(DbMsg::Rows { bytes }) => return Self::rows_append(sys, &bytes),
                    Some(DbMsg::Done) => {
                        let rows = Self::rows_load(sys);
                        self.resume(sys, &mut s, Resume::Rows(rows));
                    }
                    _ => return,
                },
                State::AwaitExec => {
                    let Some(DbMsg::ExecR { ok, affected }) = DbMsg::from_value(&msg.body) else {
                        return;
                    };
                    self.resume(sys, &mut s, Resume::Exec { ok, affected });
                }
                State::Idle | State::Draining => return,
            },
        }
        s.store(sys);
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
