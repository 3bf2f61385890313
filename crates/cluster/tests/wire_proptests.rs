//! Property tests for the federation wire codec: adversarial bytes never
//! panic, round-trips are bit-exact for every `WireMsg` shape — including
//! labels at the handle-space edge and uniform labels with no explicit
//! entries — and on bodies that are damaged *behind a valid CRC* the
//! decoder and the switch's validate-only walk reach one verdict, which
//! is "reject" for every byte string the encoder could not have written.

use asbestos_cluster::wire::{forward_port, HEADER_LEN};
use asbestos_cluster::{decode_frame, encode_frame, WireMsg};
use asbestos_kernel::{Payload, Value};
use asbestos_labels::{Handle, Label, Level, HANDLE_SPACE};
use asbestos_store::crc32;
use proptest::prelude::*;

fn arb_level() -> impl Strategy<Value = Level> {
    (0u64..5).prop_map(|b| Level::from_bits(b).unwrap())
}

fn arb_handle() -> impl Strategy<Value = Handle> {
    prop_oneof![
        (0u64..1024).prop_map(Handle::from_raw),
        // The top of the 61-bit space: the packing's edge.
        (HANDLE_SPACE - 8..HANDLE_SPACE).prop_map(Handle::from_raw),
    ]
}

fn arb_label() -> impl Strategy<Value = Label> {
    (
        arb_level(),
        prop::collection::vec((arb_handle(), arb_level()), 0..8),
    )
        .prop_map(|(default, pairs)| Label::from_pairs(default, &pairs))
}

fn arb_leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        prop::collection::vec(any::<u8>(), 0..32)
            .prop_map(|b| Value::Bytes(Payload::copy_from_slice(&b))),
        "[a-z0-9 _é☃'%-]{0,16}".prop_map(Value::Str),
        arb_handle().prop_map(Value::Handle),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_leaf_value(),
        prop::collection::vec(arb_leaf_value(), 0..5).prop_map(Value::List),
    ]
}

fn arb_msg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (any::<u16>(), any::<u16>())
            .prop_map(|(kernel, kernels)| WireMsg::Hello { kernel, kernels }),
        arb_handle().prop_map(|port| WireMsg::Register { port }),
        arb_handle().prop_map(|port| WireMsg::Unregister { port }),
        arb_handle().prop_map(|port| WireMsg::Resolve { port }),
        (arb_handle(), any::<bool>(), any::<u16>()).prop_map(|(port, some, k)| {
            WireMsg::ResolveR {
                port,
                kernel: some.then_some(k),
            }
        }),
        ("[a-z0-9._-]{0,24}", arb_value()).prop_map(|(key, value)| WireMsg::EnvSet { key, value }),
        (
            arb_handle(),
            arb_label(),
            arb_label(),
            arb_label(),
            arb_label(),
            arb_value(),
        )
            .prop_map(|(port, es, ds, dr, v, body)| WireMsg::Forward {
                port,
                es,
                ds,
                dr,
                v,
                body,
            }),
        Just(WireMsg::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every message round-trips bit-exact, consuming the whole frame —
    /// and re-encoding the decoded message reproduces the same bytes
    /// (the codec is canonical).
    #[test]
    fn roundtrip_identity(msg in arb_msg()) {
        let mut bytes = Vec::new();
        encode_frame(&msg, &mut bytes);
        let (got, used) = decode_frame(&bytes).expect("fresh frame decodes").expect("complete");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&got, &msg);
        let mut again = Vec::new();
        encode_frame(&got, &mut again);
        prop_assert_eq!(again, bytes);
    }

    /// Every truncation of a valid frame is `Ok(None)` (need more bytes)
    /// or a clean error — never a panic, never a phantom message.
    #[test]
    fn truncations_never_panic(msg in arb_msg(), permille in 0u32..1000) {
        let mut bytes = Vec::new();
        encode_frame(&msg, &mut bytes);
        let cut = bytes.len() * permille as usize / 1000;
        if let Ok(Some(_)) = decode_frame(&bytes[..cut]) {
            // Only the complete frame may decode.
            prop_assert_eq!(cut, bytes.len());
        }
    }

    /// Arbitrary bit flips never panic: the CRC catches body damage, the
    /// header checks catch the rest, and nothing hangs or asserts.
    #[test]
    fn bit_flips_never_panic(
        msg in arb_msg(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let mut bytes = Vec::new();
        encode_frame(&msg, &mut bytes);
        let len = bytes.len();
        for (idx, mask) in flips {
            bytes[idx % len] ^= mask | 1; // nonzero mask: a real flip
        }
        let _ = decode_frame(&bytes); // must not panic or hang
    }

    /// Fully random byte soup never panics either.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes);
    }
}

/// One edit to a frame body: `(kind, position, byte)`.
fn mutate(body: &mut Vec<u8>, (kind, at, byte): (u8, usize, u8)) {
    if body.is_empty() {
        return body.push(byte);
    }
    let at = at % body.len();
    match kind {
        0 => body[at] ^= byte | 1,
        1 => body.insert(at, byte),
        2 => drop(body.remove(at)),
        3 => body.truncate(at),
        // Exchange two adjacent 8-byte words: on a label run, two entries
        // out of order with every field still well-formed.
        _ if at + 16 <= body.len() => {
            let (a, b) = body[at..at + 16].split_at_mut(8);
            a.swap_with_slice(b);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The CRC guards against accident, not intent, so the body decoder
    /// must stand on its own: damage a valid frame's *body*, re-patch
    /// length and CRC, and
    /// (a) the complete frame is a message or an error — no panic, no
    ///     "need more bytes";
    /// (b) the switch's validate-only walk accepts exactly the `Forward`s
    ///     the decoder accepts, names the same port, and refuses with the
    ///     same error;
    /// (c) whatever decodes re-encodes to the very bytes it came from:
    ///     the codec is canonical for all input it accepts, not only for
    ///     the encoder's output.
    #[test]
    fn crc_valid_mutations(
        msg in arb_msg(),
        edits in prop::collection::vec((0u8..5, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut frame = Vec::new();
        encode_frame(&msg, &mut frame);
        let mut body = frame.split_off(HEADER_LEN);
        for edit in edits {
            mutate(&mut body, edit);
        }
        frame[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
        frame[9..13].copy_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);

        let decoded = decode_frame(&frame);
        prop_assert_ne!(&decoded, &Ok(None));
        // Tag 6 is `Forward`: the switch walks those itself and hands
        // every other tag to the decoder, unwalked.
        let relay_should = match (&decoded, body.first()) {
            (Ok(Some((WireMsg::Forward { port, .. }, _))), _) => Ok(Some(*port)),
            (Err(e), Some(6) | None) => Err(*e),
            _ => Ok(None),
        };
        prop_assert_eq!(forward_port(&body), relay_should);
        if let Ok(Some((msg, used))) = decoded {
            prop_assert_eq!(used, frame.len());
            let mut again = Vec::new();
            encode_frame(&msg, &mut again);
            prop_assert_eq!(again, frame);
        }
    }
}

/// Pinned edges the generators cover randomly: the maximum handle, a
/// uniform label with no explicit entries, and an all-⋆ label — the
/// shapes whose packing is most easily broken by an off-by-one.
#[test]
fn pinned_edges_round_trip() {
    let max = Handle::from_raw(HANDLE_SPACE - 1);
    let msgs = [
        WireMsg::Register { port: max },
        WireMsg::Forward {
            port: max,
            es: Label::from_pairs(Level::Star, &[(max, Level::L3)]),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::from_pairs(Level::L3, &[]),
            body: Value::Handle(max),
        },
        WireMsg::Forward {
            port: Handle::from_raw(0),
            es: Label::bottom(), // uniform {⋆}: zero explicit entries
            ds: Label::bottom(),
            dr: Label::bottom(),
            v: Label::bottom(),
            body: Value::Unit,
        },
    ];
    for msg in &msgs {
        let mut bytes = Vec::new();
        encode_frame(msg, &mut bytes);
        let (got, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(&got, msg);
    }
}
