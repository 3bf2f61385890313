//! Multi-level security on Asbestos labels (§5.2, "The four levels").
//!
//! "Multi-level policies requiring hierarchical sensitivity classification
//! can be emulated in Asbestos using multiple compartments. For instance,
//! to support unclassified, secret, and top-secret levels, the security
//! administrator can use two compartments: one for secret, s, and one for
//! top-secret, t."
//!
//! Run with: `cargo run --example mls`

use std::cell::RefCell;
use std::rc::Rc;

use asbestos::kernel::util::service_with_start;
use asbestos::kernel::{Category, Handle, Kernel, Label, Level, ProcessId, Value};

/// Builds a send label for a clearance: what the process has seen.
fn send_label(s: Handle, t: Handle, clearance: &str) -> Label {
    match clearance {
        "unclassified" => Label::default_send(),
        "secret" => Label::from_pairs(Level::L1, &[(s, Level::L3)]),
        "top-secret" => Label::from_pairs(Level::L1, &[(s, Level::L3), (t, Level::L3)]),
        other => panic!("unknown clearance {other}"),
    }
}

/// Builds a receive label for a clearance: what the process may see.
fn recv_label(s: Handle, t: Handle, clearance: &str) -> Label {
    match clearance {
        "unclassified" => Label::default_recv(),
        "secret" => Label::from_pairs(Level::L2, &[(s, Level::L3)]),
        "top-secret" => Label::from_pairs(Level::L2, &[(s, Level::L3), (t, Level::L3)]),
        other => panic!("unknown clearance {other}"),
    }
}

fn main() {
    let mut kernel = Kernel::new(1962);

    // The security administrator's two compartments.
    let admin = kernel.spawn(
        "security-admin",
        Category::Other,
        service_with_start(
            |sys| {
                let s = sys.new_handle();
                let t = sys.new_handle();
                sys.publish_env("mls.secret", Value::Handle(s));
                sys.publish_env("mls.topsecret", Value::Handle(t));
            },
            |_, _| {},
        ),
    );
    kernel.run();
    let _ = admin;
    let s = kernel
        .global_env("mls.secret")
        .unwrap()
        .as_handle()
        .unwrap();
    let t = kernel
        .global_env("mls.topsecret")
        .unwrap()
        .as_handle()
        .unwrap();

    // One mailbox process per clearance, logging what it receives.
    let logs: Rc<RefCell<Vec<(String, String)>>> = Rc::default();
    let mut pids: Vec<(String, ProcessId)> = Vec::new();
    for clearance in ["unclassified", "secret", "top-secret"] {
        let tag = clearance.to_string();
        let sink = logs.clone();
        let pid = kernel.spawn(
            &format!("mailbox-{clearance}"),
            Category::Other,
            service_with_start(
                {
                    let tag = tag.clone();
                    move |sys| {
                        let p = sys.new_port(Label::top());
                        sys.set_port_label(p, Label::top()).unwrap();
                        sys.publish_env(&format!("box.{tag}"), Value::Handle(p));
                    }
                },
                move |_sys, msg| {
                    if let Some(text) = msg.body.as_str() {
                        sink.borrow_mut().push((tag.clone(), text.to_string()));
                    }
                },
            ),
        );
        pids.push((clearance.to_string(), pid));
    }
    kernel.run();
    // Assign clearances out of band (the administrator's prerogative, §5.2).
    for (clearance, pid) in &pids {
        kernel.set_process_labels(
            *pid,
            Some(send_label(s, t, clearance)),
            Some(recv_label(s, t, clearance)),
        );
    }

    // A writer per clearance sends a message to every mailbox — *after*
    // its clearance label has been assigned (the trigger message keeps the
    // sends from racing the out-of-band label assignment).
    for clearance in ["unclassified", "secret", "top-secret"] {
        let writer = kernel.spawn(
            &format!("writer-{clearance}"),
            Category::Other,
            service_with_start(
                {
                    let clearance = clearance.to_string();
                    move |sys| {
                        let p = sys.new_port(Label::top());
                        sys.set_port_label(p, Label::top()).unwrap();
                        sys.publish_env(&format!("writer.{clearance}"), Value::Handle(p));
                    }
                },
                {
                    let clearance = clearance.to_string();
                    move |sys, _msg| {
                        for target in ["unclassified", "secret", "top-secret"] {
                            let port = sys
                                .env(&format!("box.{target}"))
                                .unwrap()
                                .as_handle()
                                .unwrap();
                            sys.send(port, Value::Str(format!("{clearance} report").into()))
                                .unwrap();
                        }
                    }
                },
            ),
        );
        kernel.run();
        kernel.set_process_labels(writer, Some(send_label(s, t, clearance)), None);
        let trigger = kernel
            .global_env(&format!("writer.{clearance}"))
            .unwrap()
            .as_handle()
            .unwrap();
        kernel.inject(trigger, Value::Unit);
        kernel.run();
    }

    // The Bell-LaPadula outcome: no read up, writes only flow up.
    println!("deliveries (writer clearance -> mailbox):");
    let received = logs.borrow();
    for (mailbox, text) in received.iter() {
        println!("  {text:<22} -> {mailbox}");
    }
    let got = |mbx: &str, msg: &str| received.iter().any(|(m, x)| m == mbx && x.starts_with(msg));
    // Everyone receives unclassified reports.
    assert!(got("unclassified", "unclassified"));
    assert!(got("secret", "unclassified"));
    assert!(got("top-secret", "unclassified"));
    // Secret reaches secret and above.
    assert!(!got("unclassified", "secret"));
    assert!(got("secret", "secret"));
    assert!(got("top-secret", "secret"));
    // Top-secret reaches only top-secret.
    assert!(!got("unclassified", "top-secret"));
    assert!(!got("secret", "top-secret"));
    assert!(got("top-secret", "top-secret"));
    println!(
        "\n{} cross-level sends dropped by the kernel",
        kernel.stats().dropped_label_check
    );
    println!("mls OK: the *-property holds");
}
