//! A bulletin-board system — one of §2's motivating large-scale server
//! applications ("Examples include Web commerce and bulletin-board
//! systems") — assembled from the OKWS pieces:
//!
//! * drafts are private rows (ok-dbproxy ownership);
//! * posting publishes through a §7.6 declassifier worker.
//!
//! Run with: `cargo run --release --example bulletin_board`

use asbestos::db::SqlValue;
use asbestos::kernel::Kernel;
use asbestos::net::HttpRequest;
use asbestos::okws::logic::{Action, SessionStore, WorkerLogic};
use asbestos::okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

/// The board service: `?draft=` saves a private draft; `?post=1` publishes
/// the saved draft; `?read=1` lists what this user may see.
struct Board;

impl Board {
    const TABLE: &'static str = "CREATE TABLE board (author, text)";
}

impl WorkerLogic for Board {
    fn on_request(&self, session: &mut dyn SessionStore, req: &HttpRequest) -> Action {
        if let Some(draft) = req.param("draft") {
            // Keep the draft in event-process session memory: private by
            // construction (§6), not even in the database yet.
            let bytes = draft.as_bytes();
            session.write(0, &(bytes.len() as u32).to_le_bytes());
            session.write(4, &bytes[..bytes.len().min(512)]);
            return Action::ok(&b"draft saved"[..]);
        }
        if req.param("post").is_some() {
            let len = u32::from_le_bytes(session.read(0, 4).try_into().expect("4 bytes")) as usize;
            if len == 0 {
                return Action::error(400, "no draft to post");
            }
            let text = String::from_utf8_lossy(&session.read(4, len)).into_owned();
            // As a declassifier worker, this INSERT lands with owner id 0 —
            // world-readable. As a plain worker it would stay private.
            return Action::DbExec {
                sql: "INSERT INTO board VALUES (?, ?)".into(),
                params: vec![
                    SqlValue::Text(req.param("user").unwrap_or("?").into()),
                    SqlValue::Text(text),
                ],
            };
        }
        if req.param("read").is_some() {
            return Action::DbQuery {
                sql: "SELECT author, text FROM board".into(),
                params: vec![],
            };
        }
        Action::error(400, "need draft=, post=1, or read=1")
    }

    fn on_db_exec(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        ok: bool,
        _affected: u64,
    ) -> Action {
        if ok {
            Action::ok(&b"posted"[..])
        } else {
            Action::error(403, "refused")
        }
    }

    fn on_db_rows(
        &self,
        _session: &mut dyn SessionStore,
        _req: &HttpRequest,
        rows: &[Vec<SqlValue>],
    ) -> Action {
        let mut out = String::new();
        for row in rows {
            out.push_str(row[0].as_text().unwrap_or("?"));
            out.push_str(": ");
            out.push_str(row[1].as_text().unwrap_or(""));
            out.push('\n');
        }
        Action::ok(out.into_bytes())
    }
}

fn main() {
    let mut kernel = Kernel::new(1088);
    let mut config = OkwsConfig::new(80);
    // "board" keeps everything private; "publish" is the declassifier.
    config
        .services
        .push(ServiceSpec::new("board", || Box::new(Board)));
    config
        .services
        .push(ServiceSpec::new("publish", || Box::new(Board)).declassifier());
    config.worker_tables.push(Board::TABLE.to_string());
    config.users.push(("alice".into(), "a-pw".into()));
    config.users.push(("bob".into(), "b-pw".into()));
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    // Alice drafts privately, then posts through the declassifier. The
    // draft lives in her session event process; the board row is public.
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "publish",
            "alice",
            "a-pw",
            &[("draft", "labels+are+great")],
        )
        .unwrap();
    println!("alice: {}", String::from_utf8_lossy(&body));
    let (_, body) = client
        .request_sync(&mut kernel, "publish", "alice", "a-pw", &[("post", "1")])
        .unwrap();
    println!("alice: {}", String::from_utf8_lossy(&body));

    // Bob also drafts — but through the *private* board worker, and posts
    // there: his row stays owned by him.
    client
        .request_sync(
            &mut kernel,
            "board",
            "bob",
            "b-pw",
            &[("draft", "bob+private+note")],
        )
        .unwrap();
    client
        .request_sync(&mut kernel, "board", "bob", "b-pw", &[("post", "1")])
        .unwrap();

    // Everyone reads the board. Alice's published post is visible to both;
    // bob's private post is visible only to bob.
    let (_, body) = client
        .request_sync(&mut kernel, "board", "alice", "a-pw", &[("read", "1")])
        .unwrap();
    println!("alice reads:\n{}", String::from_utf8_lossy(&body));
    assert!(body.starts_with(b"alice: labels are great\n"));
    assert!(!String::from_utf8_lossy(&body).contains("bob"));

    let (_, body) = client
        .request_sync(&mut kernel, "board", "bob", "b-pw", &[("read", "1")])
        .unwrap();
    println!("bob reads:\n{}", String::from_utf8_lossy(&body));
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("alice: labels are great"));
    assert!(text.contains("bob: bob private note"));

    println!(
        "bulletin_board OK ({} kernel label drops kept drafts private)",
        kernel.stats().dropped_label_check
    );
}
