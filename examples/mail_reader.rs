//! The §5.5 mail-reader example: port labels as kernel-side message
//! filters.
//!
//! "Imagine a mail reader that starts an untrusted program to read an
//! attachment. The mail reader can, and should, accept contamination from
//! other system processes, such as the filesystem; but though it needs to
//! communicate with the attachment program, it doesn't want to accept
//! contamination from it. A compromised attachment that develops a high
//! taint should lose the ability to send to the mail reader."
//!
//! Run with: `cargo run --example mail_reader`

use std::cell::RefCell;
use std::rc::Rc;

use asbestos::kernel::util::service_with_start;
use asbestos::kernel::{Category, Kernel, Label, Level, Value};

fn main() {
    let mut kernel = Kernel::new(55);

    let inbox: Rc<RefCell<Vec<String>>> = Rc::default();
    let sink = inbox.clone();
    kernel.spawn(
        "mail-reader",
        Category::Other,
        service_with_start(
            |sys| {
                // A compartment for "things attachments have touched".
                let quarantine = sys.new_handle();
                sys.publish_env("quarantine", Value::Handle(quarantine));
                // The reader is happy to receive quarantine-tainted data on
                // its *process* label (it created the compartment, so it
                // may raise its own receive label)...
                sys.raise_recv(quarantine, Level::L3).unwrap();
                // ...but its command port refuses it: p_R = {quarantine 1, 3}.
                // The kernel filters before delivery — the reader's own code
                // never sees attachment-tainted traffic on this port.
                let filtered =
                    sys.new_port(Label::from_pairs(Level::L3, &[(quarantine, Level::L1)]));
                sys.set_port_label(
                    filtered,
                    Label::from_pairs(Level::L3, &[(quarantine, Level::L1)]),
                )
                .unwrap();
                sys.publish_env("reader.port", Value::Handle(filtered));
            },
            move |_sys, msg| {
                if let Some(text) = msg.body.as_str() {
                    sink.borrow_mut().push(text.to_string());
                }
            },
        ),
    );
    kernel.run();
    let quarantine = kernel
        .global_env("quarantine")
        .unwrap()
        .as_handle()
        .unwrap();
    let reader_port = kernel
        .global_env("reader.port")
        .unwrap()
        .as_handle()
        .unwrap();

    // The filesystem: a clean system service; its messages flow normally.
    kernel.spawn(
        "filesystem",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.send(reader_port, Value::Str("new mail: 2 messages".into()))
                    .unwrap();
            },
            |_, _| {},
        ),
    );

    // The attachment viewer: quarantined (contaminated at birth by the
    // reader's compartment — assigned out of band before it ever runs).
    let attachment = kernel.spawn(
        "attachment-viewer",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("viewer.port", Value::Handle(p));
            },
            move |sys, _msg| {
                // A compromised viewer tries to inject a spoofed status
                // message into the mail reader.
                sys.send(reader_port, Value::Str("FAKE: all mail deleted".into()))
                    .unwrap();
            },
        ),
    );
    kernel.run();
    kernel.set_process_labels(
        attachment,
        Some(Label::from_pairs(Level::L1, &[(quarantine, Level::L3)])),
        None,
    );
    // Hand the viewer an "attachment" to open; its spoof attempt follows.
    let viewer_port = kernel
        .global_env("viewer.port")
        .unwrap()
        .as_handle()
        .unwrap();
    kernel.inject(viewer_port, Value::Str("attachment bytes".into()));
    kernel.run();

    println!("mail reader inbox: {:?}", inbox.borrow());
    assert_eq!(*inbox.borrow(), vec!["new mail: 2 messages"]);
    assert_eq!(kernel.stats().dropped_label_check, 1);
    println!("attachment's spoof was dropped by the port label — mail_reader OK");
}
