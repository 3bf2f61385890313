//! Integration tests for the event-process abstraction (§6): creation on
//! base-port delivery, per-EP labels, copy-on-write memory isolation,
//! `ep_clean`/`ep_exit`, and the paper's session-cache usage pattern.

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::{ep_service_fn, service_with_start, Recorder};
use asbestos_kernel::{
    Category, DeliveryOutcome, DropReason, EpId, Kernel, Label, Level, SendArgs, Value,
};

/// Address where workers keep their per-session counter.
const SESSION_ADDR: u64 = 0x10_000;
/// Address of base-initialized shared data.
const SHARED_ADDR: u64 = 0x0;
/// Scratch area cleaned between events.
const SCRATCH_ADDR: u64 = 0x7f_0000;
/// Page size, in bytes.
const PAGE: usize = 4096;

/// Spawns the standard test worker: an EP service that
/// * reads base-shared data,
/// * keeps a per-session event counter in private memory,
/// * creates a session port on first activation and reports it (plus the
///   counter) to the recorder port.
fn spawn_worker(kernel: &mut Kernel) -> asbestos_kernel::ProcessId {
    kernel.spawn_ep_service(
        "worker",
        Category::Okws,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("worker.port", Value::Handle(p));
                sys.mem_write(SHARED_ADDR, b"SHARED-BY-ALL").unwrap();
            },
            |sys, _msg| {
                // Verify base memory is visible.
                let shared = sys.mem_read(SHARED_ADDR, 13).unwrap();
                assert_eq!(&shared, b"SHARED-BY-ALL");

                // Bump the private session counter (written via COW).
                let count = sys.mem_read_u64(SESSION_ADDR).unwrap() + 1;
                sys.mem_write_u64(SESSION_ADDR, count).unwrap();

                // Scratch writes that a tidy worker cleans before yielding.
                sys.mem_write(SCRATCH_ADDR, &[0xAA; 64]).unwrap();

                // First activation: make a session port (the uW of §7.2).
                let session_port = if sys.is_new_ep() {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.mem_write_u64(SESSION_ADDR + 8, p.raw()).unwrap();
                    p
                } else {
                    asbestos_kernel::Handle::from_raw(sys.mem_read_u64(SESSION_ADDR + 8).unwrap())
                };

                // Report (session_port, count) to the recorder.
                let rec = sys.env("rec.port").unwrap().as_handle().unwrap();
                sys.send(
                    rec,
                    Value::List(vec![Value::Handle(session_port), Value::U64(count)]),
                )
                .unwrap();

                sys.ep_clean(SCRATCH_ADDR, 64).unwrap();
            },
        ),
    )
}

#[test]
fn base_port_forks_a_fresh_ep_per_message() {
    let mut kernel = Kernel::new(21);
    let (rec, log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    let worker = spawn_worker(&mut kernel);
    let wport = kernel
        .global_env("worker.port")
        .unwrap()
        .as_handle()
        .unwrap();

    for _ in 0..3 {
        kernel.inject(wport, Value::Unit);
    }
    kernel.run();

    assert_eq!(kernel.stats().eps_created, 3);
    assert_eq!(kernel.live_eps(worker).len(), 3);
    // Each EP saw count == 1: fresh private memory, not shared.
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 3);
    for entry in log.iter() {
        let items = entry.body.as_list().unwrap();
        assert_eq!(items[1].as_u64(), Some(1));
    }
    // Three distinct session ports.
    let mut ports: Vec<_> = log
        .iter()
        .map(|e| e.body.as_list().unwrap()[0].as_handle().unwrap())
        .collect();
    ports.sort();
    ports.dedup();
    assert_eq!(ports.len(), 3);
}

#[test]
fn ep_port_resumes_the_same_ep() {
    let mut kernel = Kernel::new(22);
    let (rec, log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    spawn_worker(&mut kernel);
    let wport = kernel
        .global_env("worker.port")
        .unwrap()
        .as_handle()
        .unwrap();

    kernel.inject(wport, Value::Unit);
    kernel.run();
    let session_port = log.lock().unwrap()[0].body.as_list().unwrap()[0]
        .as_handle()
        .unwrap();

    // Messages to the session port reactivate the same EP: its counter
    // keeps incrementing in its private pages (§7.3's session pattern).
    kernel.inject(session_port, Value::Unit);
    kernel.inject(session_port, Value::Unit);
    kernel.run();

    assert_eq!(kernel.stats().eps_created, 1, "no extra EPs forked");
    let log = log.lock().unwrap();
    let counts: Vec<u64> = log
        .iter()
        .map(|e| e.body.as_list().unwrap()[1].as_u64().unwrap())
        .collect();
    assert_eq!(counts, vec![1, 2, 3]);
}

#[test]
fn ep_memory_is_isolated_and_cow() {
    let mut kernel = Kernel::new(23);
    let (rec, log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    let worker = spawn_worker(&mut kernel);
    let wport = kernel
        .global_env("worker.port")
        .unwrap()
        .as_handle()
        .unwrap();

    kernel.inject(wport, Value::Unit);
    kernel.inject(wport, Value::Unit);
    kernel.run();

    // Both EPs wrote SESSION_ADDR; each has a private copy, and the base
    // page table does not contain the session page at all.
    let eps = kernel.live_eps(worker);
    assert_eq!(eps.len(), 2);
    for &eid in &eps {
        // Session page + scratch was cleaned, so exactly 1 private page
        // (session port stored alongside the counter on the same page).
        assert_eq!(
            kernel.event_process(eid).delta.len(),
            1,
            "after ep_clean only the session page should remain"
        );
    }
    // Base process has only the shared page.
    assert_eq!(kernel.process(worker).page_table.len(), 1);
    // Counters were independent (both saw 1).
    let log = log.lock().unwrap();
    assert_eq!(log[0].body.as_list().unwrap()[1].as_u64(), Some(1));
    assert_eq!(log[1].body.as_list().unwrap()[1].as_u64(), Some(1));
}

#[test]
fn ep_clean_discards_scratch_pages() {
    let mut kernel = Kernel::new(24);
    let (rec, _log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    let worker = kernel.spawn_ep_service(
        "messy",
        Category::Okws,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("messy.port", Value::Handle(p));
            },
            |sys, msg| {
                // Dirty three scratch pages and one durable page.
                sys.mem_write(SCRATCH_ADDR, &[1; 4096]).unwrap();
                sys.mem_write(SCRATCH_ADDR + 4096, &[2; 4096]).unwrap();
                sys.mem_write(SCRATCH_ADDR + 8192, &[3; 100]).unwrap();
                sys.mem_write_u64(SESSION_ADDR, 7).unwrap();
                assert_eq!(sys.ep_private_pages(), 4);
                if msg.body.as_str() == Some("tidy") {
                    sys.ep_clean(SCRATCH_ADDR, 3 * 4096).unwrap();
                    assert_eq!(sys.ep_private_pages(), 1);
                    // Cleaned pages revert to base contents (zeros here).
                    let back = sys.mem_read(SCRATCH_ADDR, 4).unwrap();
                    assert_eq!(back, vec![0, 0, 0, 0]);
                }
            },
        ),
    );
    let port = kernel
        .global_env("messy.port")
        .unwrap()
        .as_handle()
        .unwrap();
    kernel.inject(port, Value::Str("tidy".into()));
    kernel.inject(port, Value::Str("messy".into()));
    kernel.run();

    let eps = kernel.live_eps(worker);
    assert_eq!(eps.len(), 2);
    let pages: Vec<usize> = eps
        .iter()
        .map(|&e| kernel.event_process(e).delta.len())
        .collect();
    // The tidy EP kept 1 page; the messy one kept all 4 (the paper's
    // "active session" worst case works exactly like this, §9.1).
    let mut sorted = pages.clone();
    sorted.sort();
    assert_eq!(sorted, vec![1, 4]);
}

#[test]
fn ep_exit_frees_pages_and_ports() {
    let mut kernel = Kernel::new(25);
    let (rec, log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    let worker = kernel.spawn_ep_service(
        "transient",
        Category::Okws,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("transient.port", Value::Handle(p));
            },
            |sys, _msg| {
                sys.mem_write(SESSION_ADDR, &[9; 4096]).unwrap();
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                let rec = sys.env("rec.port").unwrap().as_handle().unwrap();
                sys.send(rec, Value::Handle(p)).unwrap();
                sys.ep_exit().unwrap();
            },
        ),
    );
    let port = kernel
        .global_env("transient.port")
        .unwrap()
        .as_handle()
        .unwrap();
    let frames_before = kernel.kmem_report().user_frame_bytes;
    kernel.inject(port, Value::Unit);
    kernel.run();

    assert_eq!(kernel.stats().eps_created, 1);
    assert_eq!(kernel.stats().eps_exited, 1);
    assert!(kernel.live_eps(worker).is_empty());
    // The EP's private page was released.
    assert_eq!(kernel.kmem_report().user_frame_bytes, frames_before);
    // Its session port is dead: messages to it are dropped.
    let dead_port = log.lock().unwrap()[0].body.as_handle().unwrap();
    kernel.inject(dead_port, Value::Unit);
    kernel.run();
    assert_eq!(kernel.stats().dropped_no_port, 1);
}

/// Killing an event-mode process frees what each of its live event
/// processes holds, as `ep_exit` would: every port is dissociated, every
/// private page goes back, and each event process counts as exited.
#[test]
fn kill_process_frees_every_live_event_process() {
    let mut kernel = Kernel::new(26);
    let (rec, log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    let worker = kernel.spawn_ep_service(
        "victim",
        Category::Okws,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("victim.port", Value::Handle(p));
            },
            |sys, _msg| {
                sys.mem_write(SESSION_ADDR, &[7; PAGE]).unwrap();
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                let rec = sys.env("rec.port").unwrap().as_handle().unwrap();
                sys.send(rec, Value::Handle(p)).unwrap();
            },
        ),
    );
    let base_port = kernel.global_env_handle("victim.port").unwrap();
    kernel.inject(base_port, Value::Unit);
    kernel.inject(base_port, Value::Unit);
    kernel.run();
    assert_eq!(kernel.live_eps(worker).len(), 2);
    assert_eq!(kernel.kmem_report().user_frame_bytes, 2 * PAGE);
    let ep_ports: Vec<_> = log
        .lock()
        .unwrap()
        .iter()
        .map(|r| r.body.as_handle().unwrap())
        .collect();
    assert_eq!(ep_ports.len(), 2);

    kernel.kill_process(worker);

    for port in ep_ports.iter().chain([&base_port]) {
        assert!(
            kernel.handle_table().port(*port).is_none(),
            "{port:?} dissociated"
        );
    }
    assert_eq!(kernel.kmem_report().user_frame_bytes, 0);
    assert_eq!(kernel.stats().eps_exited, 2);
    assert!(kernel.live_eps(worker).is_empty());
    kernel.inject(ep_ports[0], Value::Unit);
    assert_eq!(
        kernel.step_outcome(),
        DeliveryOutcome::Dropped(DropReason::NoSuchPort)
    );
}

/// The host reuses a released page buffer for the next frame, and none of
/// its bytes may cross event processes. Event process A, under one
/// compartment, fills a scratch page and its copy of a base page with a
/// secret, `ep_clean`s the scratch page and exits: both page buffers go
/// to the spare list. Event process B, under another compartment, then
/// takes them. Its fresh page reads as zeros but for the byte it wrote,
/// and its copy-on-write copy of the base page equals the base page byte
/// for byte.
#[test]
fn reused_memory_never_crosses_event_processes() {
    const BASE: u64 = 0x20_000;
    let base_page: Vec<u8> = (0..PAGE as u32).map(|i| (i % 251) as u8).collect();
    let mut kernel = Kernel::new(28);
    let (rec, log) = Recorder::new("rec.port");
    let rec_pid = kernel.spawn("recorder", Category::Other, Box::new(rec));
    kernel.set_process_labels(rec_pid, None, Some(Label::top()));
    let base = base_page.clone();
    kernel.spawn_ep_service(
        "reuser",
        Category::Okws,
        ep_service_fn(
            move |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("reuser.port", Value::Handle(p));
                sys.mem_write(BASE, &base).unwrap();
            },
            |sys, msg| match msg.body.as_str() {
                Some("a") => {
                    let secret = [0xa5; PAGE];
                    sys.mem_write(SCRATCH_ADDR, &secret).unwrap();
                    sys.mem_write(BASE, &secret).unwrap();
                    sys.ep_clean(SCRATCH_ADDR, PAGE).unwrap();
                    sys.ep_exit().unwrap();
                }
                _ => {
                    sys.mem_write(SCRATCH_ADDR + 17, &[1]).unwrap();
                    let fresh = sys.mem_read(SCRATCH_ADDR, PAGE).unwrap();
                    let first = sys.mem_read(BASE, 1).unwrap();
                    sys.mem_write(BASE, &first).unwrap();
                    let copy = sys.mem_read(BASE, PAGE).unwrap();
                    let rec = sys.env("rec.port").unwrap().as_handle().unwrap();
                    let pages = Value::List(vec![fresh.into(), copy.into()]);
                    sys.send(rec, pages).unwrap();
                }
            },
        ),
    );
    let port = kernel
        .global_env("reuser.port")
        .unwrap()
        .as_handle()
        .unwrap();
    for body in ["a", "b"] {
        kernel.spawn(
            "tainter",
            Category::Other,
            service_with_start(
                move |sys| {
                    let t = sys.new_handle();
                    let cs = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
                    let dr = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
                    let args = SendArgs::new().contaminate(cs).raise_recv(dr);
                    sys.send_args(port, Value::Str(body.into()), &args).unwrap();
                },
                |_, _| {},
            ),
        );
        kernel.run();
    }
    assert_eq!(kernel.stats().eps_exited, 1, "A exited");
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 1, "B reported");
    let pages = log[0].body.as_list().unwrap();
    let mut want = [0u8; PAGE];
    want[17] = 1;
    assert_eq!(pages[0].as_bytes().unwrap(), want, "B's fresh page");
    assert_eq!(
        pages[1].as_bytes().unwrap(),
        base_page,
        "B's copy of the base page"
    );
}

#[test]
fn ep_labels_are_private_to_each_ep() {
    // §6.1: "the ﬁle server would end up contaminating an event process's
    // send label with the user's handle, correctly reflecting that just the
    // event process was contaminated."
    let mut kernel = Kernel::new(26);
    let (rec, _log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    let worker = kernel.spawn_ep_service(
        "labeled",
        Category::Okws,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("labeled.port", Value::Handle(p));
            },
            |_sys, _msg| {},
        ),
    );
    let wport = kernel
        .global_env("labeled.port")
        .unwrap()
        .as_handle()
        .unwrap();

    // A taint-owner contaminates the worker differently per message.
    kernel.spawn(
        "tainter",
        Category::Other,
        service_with_start(
            move |sys| {
                let ut = sys.new_handle();
                let vt = sys.new_handle();
                sys.publish_env("ut", Value::Handle(ut));
                sys.publish_env("vt", Value::Handle(vt));
                for t in [ut, vt] {
                    let cs = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
                    let dr = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
                    sys.send_args(
                        wport,
                        Value::Unit,
                        &SendArgs::new().contaminate(cs).raise_recv(dr),
                    )
                    .unwrap();
                }
            },
            |_, _| {},
        ),
    );
    kernel.run();

    let ut = kernel.global_env("ut").unwrap().as_handle().unwrap();
    let vt = kernel.global_env("vt").unwrap().as_handle().unwrap();
    let eps = kernel.live_eps(worker);
    assert_eq!(eps.len(), 2);
    let labels: Vec<(Level, Level)> = eps
        .iter()
        .map(|&e| {
            let ep = kernel.event_process(e);
            (ep.send_label.get(ut), ep.send_label.get(vt))
        })
        .collect();
    // One EP is uT-tainted only, the other vT-tainted only.
    assert!(labels.contains(&(Level::L3, Level::L1)));
    assert!(labels.contains(&(Level::L1, Level::L3)));
    // The base process stays untainted: future users fork clean EPs.
    let base = kernel.process(worker);
    assert_eq!(base.send_label.get(ut), Level::L1);
    assert_eq!(base.send_label.get(vt), Level::L1);
}

#[test]
fn tainted_ep_cannot_reach_other_users_session_port() {
    // The §7.2 isolation argument, reduced to its kernel mechanics: W[u]
    // (tainted uT 3) must not be able to send to W[v]'s session port once
    // W[v] is tainted vT 3 — and vice versa.
    let mut kernel = Kernel::new(27);
    let (rec, log) = Recorder::new("rec.port");
    let rec_pid = kernel.spawn("recorder", Category::Other, Box::new(rec));
    // The recorder plays the role of trusted infrastructure that may see
    // any user's taint (out-of-band label assignment, as in §5.2).
    kernel.set_process_labels(rec_pid, None, Some(Label::top()));
    kernel.spawn_ep_service(
        "worker",
        Category::Okws,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("w.port", Value::Handle(p));
            },
            |sys, msg| {
                match msg.body.as_str() {
                    // First event: create our session port and report it.
                    None => {
                        let p = sys.new_port(Label::top());
                        sys.set_port_label(p, Label::top()).unwrap();
                        let rec = sys.env("rec.port").unwrap().as_handle().unwrap();
                        sys.send(rec, Value::Handle(p)).unwrap();
                    }
                    // Attack event: try to message another session's port.
                    Some(_) => {
                        let target = asbestos_kernel::Handle::from_raw(
                            msg.body.as_str().unwrap().parse::<u64>().unwrap(),
                        );
                        sys.send(target, Value::Str("stolen".into())).unwrap();
                    }
                }
            },
        ),
    );
    let wport = kernel.global_env("w.port").unwrap().as_handle().unwrap();

    // Contaminate two sessions with different user taints.
    kernel.spawn(
        "tainter",
        Category::Other,
        service_with_start(
            move |sys| {
                for _ in 0..2 {
                    let t = sys.new_handle();
                    let cs = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
                    let dr = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
                    sys.send_args(
                        wport,
                        Value::Unit,
                        &SendArgs::new().contaminate(cs).raise_recv(dr),
                    )
                    .unwrap();
                }
            },
            |_, _| {},
        ),
    );
    kernel.run();
    let log_snapshot: Vec<_> = log.lock().unwrap().iter().map(|e| e.body.clone()).collect();
    assert_eq!(log_snapshot.len(), 2);
    let port_u = log_snapshot[0].as_handle().unwrap();
    let port_v = log_snapshot[1].as_handle().unwrap();

    // Tell session u to attack session v's port.
    kernel.inject(port_u, Value::Str(format!("{}", port_v.raw()).into()));
    let delivered_before = kernel.stats().delivered;
    kernel.run();
    // The attack message itself was delivered to u's EP; u's forward to
    // v's port was dropped by the label check (u's taint ≠ v's taint).
    assert_eq!(kernel.stats().delivered, delivered_before + 1);
    assert_eq!(kernel.stats().dropped_label_check, 1);
}

#[test]
fn ep_syscall_guards() {
    let mut kernel = Kernel::new(28);
    let errors = Arc::new(Mutex::new(Vec::new()));
    let e2 = errors.clone();
    kernel.spawn(
        "plain",
        Category::Other,
        service_with_start(
            move |sys| {
                // ep_clean/ep_exit outside an event process must fail.
                e2.lock().unwrap().push(sys.ep_clean(0, 10).unwrap_err());
                e2.lock().unwrap().push(sys.ep_exit().unwrap_err());
            },
            |_, _| {},
        ),
    );
    kernel.run();
    use asbestos_kernel::SysError;
    assert_eq!(
        *errors.lock().unwrap(),
        vec![SysError::NotEventProcess, SysError::NotEventProcess]
    );
}

#[test]
fn ep_struct_accounting_matches_paper() {
    // §6.1: EP kernel state is 44 bytes (plus labels); a process is 320.
    let mut kernel = Kernel::new(29);
    kernel.spawn_ep_service(
        "w",
        Category::Okws,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("w.port", Value::Handle(p));
            },
            |_, _| {},
        ),
    );
    let wport = kernel.global_env("w.port").unwrap().as_handle().unwrap();
    let before = kernel.kmem_report();
    kernel.inject(wport, Value::Unit);
    kernel.run();
    let after = kernel.kmem_report();
    // One new EP: 44 bytes + two ~300-byte labels.
    assert_eq!(after.ep_bytes - before.ep_bytes, 44 + 600);
}

#[test]
fn many_sessions_cost_about_one_page_each() {
    // The headline claim, at kernel granularity: N cached sessions, each
    // holding one dirty page, cost ~N pages of user memory plus small
    // kernel overhead — not N process images.
    let mut kernel = Kernel::new(30);
    let (rec, _log) = Recorder::new("rec.port");
    kernel.spawn("recorder", Category::Other, Box::new(rec));
    let worker = spawn_worker(&mut kernel);
    let wport = kernel
        .global_env("worker.port")
        .unwrap()
        .as_handle()
        .unwrap();

    let n = 500;
    let before = kernel.kmem_report();
    for _ in 0..n {
        kernel.inject(wport, Value::Unit);
    }
    kernel.run();
    let after = kernel.kmem_report();

    let user_pages = (after.user_frame_bytes - before.user_frame_bytes) / 4096;
    assert_eq!(user_pages, n, "exactly one private page per session");
    let kernel_overhead = after.total_bytes()
        - before.total_bytes()
        - (after.user_frame_bytes - before.user_frame_bytes);
    let per_session = kernel_overhead / n;
    // EP struct + labels + session-port vnode + port label: well under a
    // page; Figure 6 measures ~0.5 page in the full OKWS configuration.
    assert!(
        (600..3000).contains(&per_session),
        "kernel overhead per session out of range: {per_session} bytes"
    );
    // And no EpId collisions: every session is its own EP.
    assert_eq!(kernel.stats().eps_created as usize, n);
    let ids: Vec<EpId> = kernel.live_eps(worker);
    assert_eq!(ids.len(), n);
}
