//! Figure 4 at the kernel boundary, against a reference model.
//!
//! Random sends among processes whose labels have OKWS sizes — hundreds of
//! `⋆` privileges and accepted taints on cipher-spread handles, plus a few
//! taints — with random `C_S` / `D_S` / `V` / `D_R` and port labels. The
//! model is Figure 4 written out over [`NaiveLabel`], the `BTreeMap` label
//! whose operations are their definitions. For every send it predicts
//! whether the sender's privilege checks pass, the delivery's verdict and
//! drop reason, and the receiver's `Q_S` and `Q_R` afterwards; the kernel
//! must agree on all of them, step by step.
//!
//! Besides the processes' ports, a send may target a handle that names no
//! port: a compartment, a value no cipher lane minted, and a port that a
//! process mints a third of the way through the script and dissociates
//! two thirds of the way through. For those the model predicts the
//! sender's privilege checks first, then `NoSuchPort`.

use std::sync::{Arc, Mutex};

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, SendArgs, Stats, Value};
use asbestos_labels::naive::NaiveLabel;
use asbestos_labels::HandleCipher;
use proptest::test_runner::TestRng;

const PROCESSES: usize = 6;
const SENDS: usize = 240;
/// The process that mints a port mid-script.
const MINTER: usize = 1;

/// One scripted send: from `sender` to target `target` with `args`.
struct Step {
    sender: usize,
    target: usize,
    args: SendArgs,
}

/// What one delivery came to.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Refused,
    Delivered,
    LabelCheck,
    PortLabelDecont,
    NoSuchPort,
}

fn level(rng: &mut TestRng) -> Level {
    Level::ALL[rng.below(5) as usize]
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// A label at `default` with up to `max` entries at random levels on
/// handles drawn from `pool`.
fn sprinkle(rng: &mut TestRng, default: Level, pool: &[Handle], max: u64) -> Label {
    let pairs: Vec<(Handle, Level)> = (0..rng.below(max + 1))
        .map(|_| (pick(rng, pool), level(rng)))
        .collect();
    Label::from_pairs(default, &pairs)
}

/// An OKWS-sized send label: `⋆` for a run of the pool (a front end's
/// privileges) and some ports, a few taints, default 1.
fn send_label(rng: &mut TestRng, pool: &[Handle], ports: &[Handle]) -> Label {
    let start = rng.below(pool.len() as u64 / 2) as usize;
    let len = rng.below(500) as usize;
    let mut pairs: Vec<(Handle, Level)> = pool[start..(start + len).min(pool.len())]
        .iter()
        .map(|&h| (h, Level::Star))
        .collect();
    pairs.extend(
        ports
            .iter()
            .filter(|_| rng.below(2) == 0)
            .map(|&p| (p, Level::Star)),
    );
    pairs.extend((0..rng.below(5)).map(|_| {
        (
            pick(rng, pool),
            pick(rng, &[Level::L0, Level::L2, Level::L3]),
        )
    }));
    Label::from_pairs(Level::L1, &pairs)
}

/// An OKWS-sized receive label: taints accepted at 3 for a run of the
/// pool (netd's and ok-demux's shape), a few other entries, default 2.
fn recv_label(rng: &mut TestRng, pool: &[Handle]) -> Label {
    let start = rng.below(pool.len() as u64 / 2) as usize;
    let len = rng.below(300) as usize;
    let mut pairs: Vec<(Handle, Level)> = pool[start..(start + len).min(pool.len())]
        .iter()
        .map(|&h| (h, Level::L3))
        .collect();
    pairs.extend((0..rng.below(4)).map(|_| (pick(rng, pool), level(rng))));
    Label::from_pairs(Level::L2, &pairs)
}

fn random_args(rng: &mut TestRng, pool: &[Handle], sender_stars: &[Handle]) -> SendArgs {
    let mut args = SendArgs::new();
    if rng.below(3) == 0 {
        args.contaminate = sprinkle(rng, Level::Star, pool, 3);
    }
    if rng.below(3) == 0 {
        // Grants mostly of handles the sender holds at ⋆ (requirement 2),
        // now and then of one it does not, or with a privileged default.
        let mut pairs: Vec<(Handle, Level)> = (0..1 + rng.below(3))
            .map(|_| {
                (
                    pick(rng, sender_stars),
                    pick(rng, &[Level::Star, Level::L0, Level::L1]),
                )
            })
            .collect();
        if rng.below(6) == 0 {
            pairs.push((pick(rng, pool), Level::Star));
        }
        let default = if rng.below(20) == 0 {
            Level::L2
        } else {
            Level::L3
        };
        args.decont_send = Label::from_pairs(default, &pairs);
    }
    if rng.below(3) == 0 {
        let default = pick(rng, &[Level::L3, Level::L3, Level::L2]);
        args.verify = sprinkle(rng, default, pool, 3);
    }
    if rng.below(4) == 0 {
        let pairs: Vec<(Handle, Level)> = (0..1 + rng.below(2))
            .map(|_| {
                let h = if rng.below(5) == 0 {
                    pick(rng, pool)
                } else {
                    pick(rng, sender_stars)
                };
                (h, pick(rng, &[Level::L1, Level::L2, Level::L3]))
            })
            .collect();
        args.decont_recv = Label::from_pairs(Level::Star, &pairs);
    }
    args
}

/// Figure 4, by definition, over the model's labels.
struct Model {
    send: Vec<NaiveLabel>,
    recv: Vec<NaiveLabel>,
    /// Each target's port label and owning process, or `None` where the
    /// target names no port.
    port: Vec<Option<(NaiveLabel, usize)>>,
}

impl Model {
    fn step(&mut self, step: &Step) -> Verdict {
        let naive = NaiveLabel::from;
        let ps = &self.send[step.sender];
        let all_star = *ps == NaiveLabel::new(Level::Star);
        let (cs, ds, v, dr) = (
            naive(&step.args.contaminate),
            naive(&step.args.decont_send),
            naive(&step.args.verify),
            naive(&step.args.decont_recv),
        );
        // (2) D_S(h) < 3 ⇒ P_S(h) = ⋆, and (3) D_R(h) > ⋆ ⇒ P_S(h) = ⋆,
        // the defaults' infinitely many handles included.
        let grants_ok = (ds.default_level() == Level::L3 || all_star)
            && ds
                .iter()
                .all(|(h, l)| l == Level::L3 || ps.get(h) == Level::Star);
        let raises_ok = (dr.default_level() == Level::Star || all_star)
            && dr
                .iter()
                .all(|(h, l)| l == Level::Star || ps.get(h) == Level::Star);
        if !grants_ok || !raises_ok {
            return Verdict::Refused;
        }
        let Some((pr, r)) = &self.port[step.target] else {
            return Verdict::NoSuchPort;
        };
        let (es, r) = (ps.lub(&cs), *r);
        // (4) D_R ⊑ p_R.
        if !dr.leq(pr) {
            return Verdict::PortLabelDecont;
        }
        // (1) E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R.
        if !es.leq(&self.recv[r].lub(&dr).glb(&v).glb(pr)) {
            return Verdict::LabelCheck;
        }
        // Q_S ← (Q_S ⊓ D_S) ⊔ (E_S ⊓ Q_S⋆); Q_R ← Q_R ⊔ D_R.
        let qs = &self.send[r];
        self.send[r] = qs.glb(&ds).lub(&es.glb(&qs.stars_only()));
        self.recv[r] = self.recv[r].lub(&dr);
        Verdict::Delivered
    }
}

fn verdict(before: &Stats, after: &Stats, sent: bool) -> Verdict {
    if !sent {
        return Verdict::Refused;
    }
    if after.dropped_no_port > before.dropped_no_port {
        Verdict::NoSuchPort
    } else if after.dropped_label_check > before.dropped_label_check {
        Verdict::LabelCheck
    } else if after.dropped_port_decont > before.dropped_port_decont {
        Verdict::PortLabelDecont
    } else {
        // The scripted send and the command that triggered it.
        assert_eq!(after.delivered - before.delivered, 2);
        Verdict::Delivered
    }
}

fn run(seed: u64) {
    let mut rng = TestRng::deterministic(&format!("figure4_model::{seed}"));
    // The kernel's own cipher: `pool[0]` is counter 0, which no lane
    // mints, and the rest are handles its lanes mint or will.
    let cipher = HandleCipher::new(seed);
    let pool: Vec<Handle> = (0..1_200)
        .map(|i| Handle::from_raw(cipher.encrypt(i)))
        .collect();

    let mut kernel = Kernel::new(seed);
    let script: Arc<Mutex<Vec<(Handle, SendArgs)>>> = Arc::default();
    let sent: Arc<Mutex<Vec<bool>>> = Arc::default();
    // Port labels: open, or closed to everyone without the port's own
    // capability (§5.5), or capped at a level for a few taints.
    let mut port_specs = Vec::new();
    let mut pids = Vec::new();
    for i in 0..PROCESSES {
        let spec = (
            pick(&mut rng, &[Level::L3, Level::L3, Level::L2]),
            rng.below(2) == 0,
            (0..rng.below(3))
                .map(|_| (pick(&mut rng, &pool), level(&mut rng)))
                .collect::<Vec<_>>(),
        );
        port_specs.push(spec.clone());
        let key = format!("model.{i}");
        let (script, sent) = (script.clone(), sent.clone());
        pids.push(kernel.spawn(
            &key.clone(),
            Category::Other,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, port_label(p, &spec)).unwrap();
                    sys.publish_env(&key, Value::Handle(p));
                    if i == 0 {
                        let compartment = sys.new_handle();
                        sys.publish_env("model.compartment", Value::Handle(compartment));
                    }
                },
                // A command from the test driver: run scripted send `n`,
                // or mint an open port, or dissociate it.
                move |sys, msg| match (&msg.body, msg.body.as_str()) {
                    (Value::List(items), _) => {
                        let n = items[0].as_u64().unwrap() as usize;
                        let (port, args) = script.lock().unwrap()[n].clone();
                        let result = sys.send_args(port, Value::U64(n as u64), &args);
                        sent.lock().unwrap().push(result.is_ok());
                    }
                    (_, Some("mint")) => {
                        let p = sys.new_port(Label::top());
                        sys.set_port_label(p, Label::top()).unwrap();
                        sys.publish_env("model.minted", Value::Handle(p));
                    }
                    (_, Some("dissociate")) => {
                        let p = sys.env("model.minted").unwrap().as_handle().unwrap();
                        sys.dissociate_port(p).unwrap();
                    }
                    // A scripted send, received.
                    _ => {}
                },
            ),
        ));
    }
    let ports: Vec<Handle> = (0..PROCESSES)
        .map(|i| kernel.global_env_handle(&format!("model.{i}")).unwrap())
        .collect();
    let mut targets = ports.clone();
    targets.extend([
        kernel.global_env_handle("model.compartment").unwrap(),
        pool[0],
    ]);

    let mut model = Model {
        send: Vec::new(),
        recv: Vec::new(),
        port: (0..PROCESSES)
            .map(|i| Some((NaiveLabel::from(&port_label(ports[i], &port_specs[i])), i)))
            .chain([None, None])
            .collect(),
    };
    for &pid in &pids {
        let (send, recv) = (
            send_label(&mut rng, &pool, &ports),
            recv_label(&mut rng, &pool),
        );
        model.send.push(NaiveLabel::from(&send));
        model.recv.push(NaiveLabel::from(&recv));
        kernel.set_process_labels(pid, Some(send), Some(recv));
    }

    let mut seen = [0usize; 5];
    for n in 0..SENDS {
        if n == SENDS / 3 {
            // `new_port` opens a port owned by the minter and grants it ⋆.
            kernel.inject(ports[MINTER], "mint".into());
            kernel.run();
            let minted = kernel.global_env_handle("model.minted").unwrap();
            targets.push(minted);
            model.port.push(Some((NaiveLabel::new(Level::L3), MINTER)));
            model.send[MINTER].set(minted, Level::Star);
            let minter = kernel.process(pids[MINTER]);
            assert_eq!(NaiveLabel::from(&*minter.send_label), model.send[MINTER]);
        }
        if n == 2 * SENDS / 3 {
            kernel.inject(ports[MINTER], "dissociate".into());
            kernel.run();
            *model.port.last_mut().unwrap() = None;
        }
        let step = {
            let sender = rng.below(PROCESSES as u64) as usize;
            let stars: Vec<Handle> = model.send[sender]
                .iter()
                .filter(|&(_, l)| l == Level::Star)
                .map(|(h, _)| h)
                .chain([pool[0]])
                .collect();
            Step {
                sender,
                target: rng.below(targets.len() as u64) as usize,
                args: random_args(&mut rng, &pool, &stars),
            }
        };
        script
            .lock()
            .unwrap()
            .push((targets[step.target], step.args.clone()));
        let before = kernel.stats();
        kernel.inject(ports[step.sender], Value::List(vec![Value::U64(n as u64)]));
        kernel.run();
        let sent_ok = *sent.lock().unwrap().last().unwrap();
        let got = verdict(&before, &kernel.stats(), sent_ok);
        let want = model.step(&step);
        assert_eq!(got, want, "seed {seed}, send {n}: verdict");
        seen[want as usize] += 1;
        let Some((_, r)) = model.port[step.target] else {
            continue;
        };
        let receiver = kernel.process(pids[r]);
        assert_eq!(
            NaiveLabel::from(&*receiver.send_label),
            model.send[r],
            "seed {seed}, send {n}: receiver's Q_S"
        );
        assert_eq!(
            NaiveLabel::from(&*receiver.recv_label),
            model.recv[r],
            "seed {seed}, send {n}: receiver's Q_R"
        );
    }
    // The script reached every verdict, so each check was exercised.
    assert!(seen.iter().all(|&n| n > 0), "verdicts seen: {seen:?}");
}

fn port_label(port: Handle, spec: &(Level, bool, Vec<(Handle, Level)>)) -> Label {
    let (default, closed, extra) = spec;
    let mut pairs = extra.clone();
    if *closed {
        pairs.push((port, Level::L0));
    }
    Label::from_pairs(*default, &pairs)
}

#[test]
fn kernel_matches_figure4_model() {
    for seed in [1, 2] {
        run(seed);
    }
}
