//! Quickstart: the §5.2 privacy example from the paper, on the public API.
//!
//! Builds the Figure 2 world — a trusted multi-user file server, shells for
//! users `u` and `v`, and `u`'s terminal — and shows information-flow
//! control doing its job: `u`'s data flows to `u`'s terminal, `v`'s data
//! cannot, and nobody can leak through an intermediary.
//!
//! Run with: `cargo run --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;

use asbestos::fs::{spawn_fs, FsMsg};
use asbestos::kernel::util::service_with_start;
use asbestos::kernel::{Category, Kernel, Label, Level, SendArgs, Value};

fn main() {
    let mut kernel = Kernel::new(2026);

    // The trusted file server (holds ⋆ for every user's taint compartment).
    let fs = spawn_fs(&mut kernel);
    println!(
        "file server up; system integrity compartment s = {}",
        fs.system
    );

    // u's terminal: an output device only u's information may reach.
    let printed = Rc::new(RefCell::new(Vec::<String>::new()));
    let sink = printed.clone();
    let terminal = kernel.spawn(
        "u-terminal",
        Category::Other,
        service_with_start(
            |sys| {
                let port = sys.new_port(Label::top());
                sys.set_port_label(port, Label::top()).unwrap();
                sys.publish_env("terminal.port", Value::Handle(port));
            },
            move |_sys, msg| {
                if let Some(bytes) = msg.body.as_bytes() {
                    sink.borrow_mut()
                        .push(String::from_utf8_lossy(bytes).into_owned());
                }
            },
        ),
    );

    // A shell per user. Each shell registers with the file server, then
    // executes injected commands: write its diary, read it back, and
    // forward whatever it read to the terminal.
    for user in ["u", "v"] {
        kernel.spawn(
            &format!("{user}-shell"),
            Category::Other,
            service_with_start(
                {
                    let user = user.to_string();
                    move |sys| {
                        let cmd = sys.new_port(Label::top());
                        sys.set_port_label(cmd, Label::top()).unwrap();
                        sys.publish_env(&format!("{user}.cmd"), Value::Handle(cmd));
                        let reply = sys.new_port(Label::top());
                        sys.set_port_label(reply, Label::top()).unwrap();
                        sys.set_env("reply", Value::Handle(reply));
                        let fs = sys.env("fs.port").unwrap().as_handle().unwrap();
                        sys.send(
                            fs,
                            FsMsg::AddUser {
                                user: user.clone(),
                                reply,
                            }
                            .to_value(),
                        )
                        .unwrap();
                    }
                },
                move |sys, msg| {
                    if let Some(FsMsg::AddUserR { taint, grant }) = FsMsg::from_value(&msg.body) {
                        // The server granted us uG 0 (speak-for) and raised
                        // our receive label for uT; remember the handles.
                        sys.set_env("taint", Value::Handle(taint));
                        sys.set_env("grant", Value::Handle(grant));
                        return;
                    }
                    if let Some(FsMsg::ReadR { data: Some(d), .. }) = FsMsg::from_value(&msg.body) {
                        sys.set_env("last-read", Value::Bytes(d));
                        return;
                    }
                    let Some(items) = msg.body.as_list() else {
                        return;
                    };
                    match items.first().and_then(Value::as_str) {
                        Some("write") => {
                            let name = items[1].as_str().unwrap().to_string();
                            let data = items[2].as_bytes().unwrap().to_vec();
                            let fs = sys.env("fs.port").unwrap().as_handle().unwrap();
                            let grant = sys.env("grant").unwrap().as_handle().unwrap();
                            // §5.4: prove we speak for the user with V(uG)=0.
                            let v = Label::from_pairs(Level::L3, &[(grant, Level::L0)]);
                            sys.send_args(
                                fs,
                                FsMsg::Write {
                                    name,
                                    data: data.into(),
                                    reply: None,
                                }
                                .to_value(),
                                &SendArgs::new().verify(v),
                            )
                            .unwrap();
                        }
                        Some("read") => {
                            let name = items[1].as_str().unwrap().to_string();
                            let fs = sys.env("fs.port").unwrap().as_handle().unwrap();
                            let reply = sys.env("reply").unwrap().as_handle().unwrap();
                            sys.send(fs, FsMsg::Read { name, reply }.to_value())
                                .unwrap();
                        }
                        Some("show") => {
                            // Forward the last read data to the terminal.
                            let term = sys.env("terminal.port").unwrap().as_handle().unwrap();
                            let data = sys.env("last-read").unwrap_or(Value::Unit);
                            sys.send(term, data).unwrap();
                        }
                        _ => {}
                    }
                },
            ),
        );
    }
    kernel.run();

    // Figure 2's label assignment for the terminal: receive label
    // {uT 3, 2} — willing to accept u's taint and nothing hotter.
    let u_shell = kernel.find_process("u-shell").unwrap();
    let u_taint = kernel.process(u_shell).env["taint"].as_handle().unwrap();
    kernel.set_process_labels(
        terminal,
        None,
        Some(Label::from_pairs(Level::L2, &[(u_taint, Level::L3)])),
    );

    let u_cmd = kernel.global_env("u.cmd").unwrap().as_handle().unwrap();
    let v_cmd = kernel.global_env("v.cmd").unwrap().as_handle().unwrap();

    // Create both users' files, then drive the shells.
    kernel.inject(
        fs.port,
        FsMsg::Create {
            name: "u-diary".into(),
            user: "u".into(),
        }
        .to_value(),
    );
    kernel.inject(
        fs.port,
        FsMsg::Create {
            name: "v-notes".into(),
            user: "v".into(),
        }
        .to_value(),
    );
    kernel.run();

    // u writes a diary entry, reads it (the shell becomes uT-tainted), and
    // shows it on the terminal. Allowed: U_S = {uT 3, 1} ⊑ UT_R = {uT 3, 2}.
    // (Run between commands: "read" completes asynchronously, like every
    // Asbestos protocol round trip.)
    kernel.inject(
        u_cmd,
        Value::List(vec![
            "write".into(),
            "u-diary".into(),
            Value::Bytes(b"dear diary, labels work".to_vec().into()),
        ]),
    );
    kernel.run();
    kernel.inject(u_cmd, Value::List(vec!["read".into(), "u-diary".into()]));
    kernel.run();
    kernel.inject(u_cmd, Value::List(vec!["show".into()]));
    kernel.run();
    println!("u's terminal shows: {:?}", printed.borrow());
    assert_eq!(printed.borrow().len(), 1);

    // v writes and reads its own notes (the v shell becomes vT-tainted),
    // then tries to push them to u's terminal. The kernel drops the send:
    // V_S = {vT 3, 1} ⋢ UT_R = {uT 3, 2}.
    let drops_before = kernel.stats().dropped_label_check;
    kernel.inject(
        v_cmd,
        Value::List(vec![
            "write".into(),
            "v-notes".into(),
            Value::Bytes(b"v's secrets".to_vec().into()),
        ]),
    );
    kernel.run();
    kernel.inject(v_cmd, Value::List(vec!["read".into(), "v-notes".into()]));
    kernel.run();
    kernel.inject(v_cmd, Value::List(vec!["show".into()]));
    kernel.run();
    println!(
        "v's attempt to reach u's terminal: dropped by the kernel ({} label drop)",
        kernel.stats().dropped_label_check - drops_before
    );
    assert_eq!(printed.borrow().len(), 1, "terminal saw nothing of v's");

    // And v cannot even read u's diary: the tainted reply cannot be
    // delivered to a shell that never got uT acceptance.
    let drops_before = kernel.stats().dropped_label_check;
    kernel.inject(v_cmd, Value::List(vec!["read".into(), "u-diary".into()]));
    kernel.run();
    assert_eq!(kernel.stats().dropped_label_check, drops_before + 1);
    println!("v's read of u-diary: reply dropped by the kernel");

    println!("quickstart OK: information flowed only where the labels allow");
}
