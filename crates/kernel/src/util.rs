//! Closure-based service adapters.
//!
//! Small services — test fixtures, example glue, one-port daemons — are more
//! readable as closures than as named types. These adapters wrap closures in
//! the [`Service`]/[`EpService`] traits.
//!
//! Note the types enforce the event-process discipline: the event closure is
//! `Fn`, not `FnMut`, because event handlers must keep per-user state in
//! simulated memory (where the kernel isolates it), never in captured Rust
//! state shared across users.

use std::any::Any;
use std::sync::Arc;
use std::sync::Mutex;

use crate::message::Message;
use crate::process::{EpService, Service};
use crate::sys::Sys;
use crate::value::Value;
use asbestos_labels::{Handle, Label};

struct FnService<S, F> {
    on_start: Option<S>,
    on_message: F,
}

impl<S, F> Service for FnService<S, F>
where
    S: FnOnce(&mut Sys<'_>) + 'static,
    F: FnMut(&mut Sys<'_>, &Message) + 'static,
{
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        if let Some(start) = self.on_start.take() {
            start(sys);
        }
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        (self.on_message)(sys, msg);
    }
}

/// Wraps a message handler closure as an ordinary [`Service`].
pub fn service_fn<F>(on_message: F) -> Box<dyn Service>
where
    F: FnMut(&mut Sys<'_>, &Message) + 'static,
{
    Box::new(FnService {
        on_start: None::<fn(&mut Sys<'_>)>,
        on_message,
    })
}

/// Wraps start and message handler closures as an ordinary [`Service`].
pub fn service_with_start<S, F>(on_start: S, on_message: F) -> Box<dyn Service>
where
    S: FnOnce(&mut Sys<'_>) + 'static,
    F: FnMut(&mut Sys<'_>, &Message) + 'static,
{
    Box::new(FnService {
        on_start: Some(on_start),
        on_message,
    })
}

struct FnEpService<B, F> {
    on_base_start: Option<B>,
    on_event: F,
}

impl<B, F> EpService for FnEpService<B, F>
where
    B: FnOnce(&mut Sys<'_>) + 'static,
    F: Fn(&mut Sys<'_>, &Message) + 'static,
{
    fn on_base_start(&mut self, sys: &mut Sys<'_>) {
        if let Some(start) = self.on_base_start.take() {
            start(sys);
        }
    }

    fn on_event(&self, sys: &mut Sys<'_>, msg: &Message) {
        (self.on_event)(sys, msg);
    }
}

/// Wraps closures as an [`EpService`]: `on_base_start` runs once in the base
/// process; `on_event` runs per delivery inside an event process.
pub fn ep_service_fn<B, F>(on_base_start: B, on_event: F) -> Box<dyn EpService>
where
    B: FnOnce(&mut Sys<'_>) + 'static,
    F: Fn(&mut Sys<'_>, &Message) + 'static,
{
    Box::new(FnEpService {
        on_base_start: Some(on_base_start),
        on_event,
    })
}

/// One record captured by a [`Recorder`] service.
#[derive(Clone, Debug)]
pub struct Received {
    /// The port the message arrived on.
    pub port: Handle,
    /// The payload.
    pub body: Value,
    /// The verification label delivered with the message.
    pub verify: Label,
}

/// A service that logs every delivered message; the backbone of the IPC
/// semantics tests ("did the message arrive, and with what?").
///
/// On start it creates one port, publishes it in the global environment
/// under the given key, and — because a fresh port is closed to everyone
/// (`p_R(p) = 0`) — resets the port label to `{3}` so any default process
/// can reach it. Tests that want restrictive port labels use
/// [`service_with_start`] directly.
pub struct Recorder {
    env_key: String,
    log: Arc<Mutex<Vec<Received>>>,
}

impl Recorder {
    /// Creates the recorder and a shared view of its log.
    pub fn new(env_key: &str) -> (Recorder, Arc<Mutex<Vec<Received>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (
            Recorder {
                env_key: env_key.to_string(),
                log: log.clone(),
            },
            log,
        )
    }
}

impl Service for Recorder {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        let port = sys.new_port(Label::top());
        sys.set_port_label(port, Label::top())
            .expect("creator owns the port");
        sys.publish_env(&self.env_key, Value::Handle(port));
    }

    fn on_message(&mut self, _sys: &mut Sys<'_>, msg: &Message) {
        self.log.lock().unwrap().push(Received {
            port: msg.port,
            body: msg.body.clone(),
            verify: msg.verify.clone(),
        });
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::Category;
    use crate::kernel::Kernel;

    #[test]
    fn service_fn_handles_messages() {
        let mut kernel = Kernel::new(1);
        let count = Arc::new(Mutex::new(0));
        let c2 = count.clone();
        let pid = kernel.spawn(
            "counter",
            Category::Other,
            service_with_start(
                |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env("counter.port", Value::Handle(p));
                },
                move |_sys, _msg| {
                    *c2.lock().unwrap() += 1;
                },
            ),
        );
        let port = kernel
            .global_env("counter.port")
            .unwrap()
            .as_handle()
            .unwrap();
        kernel.inject(port, Value::Unit);
        kernel.inject(port, Value::Unit);
        kernel.run();
        assert_eq!(*count.lock().unwrap(), 2);
        assert_eq!(kernel.process(pid).name, "counter");
    }

    #[test]
    fn recorder_receives_injected_messages() {
        let mut kernel = Kernel::new(1);
        let (rec, log) = Recorder::new("rec.port");
        kernel.spawn("rec", Category::Other, Box::new(rec));
        let port = kernel.global_env("rec.port").unwrap().as_handle().unwrap();
        kernel.inject(port, Value::U64(41));
        kernel.run();
        let entries = log.lock().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].body, Value::U64(41));
        assert_eq!(entries[0].port, port);
    }
}
