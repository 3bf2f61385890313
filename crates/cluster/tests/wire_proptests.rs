//! Property tests for the federation wire codec: adversarial bytes never
//! panic, round-trips are bit-exact for every `WireMsg` shape — including
//! labels at the handle-space edge and uniform labels with no explicit
//! entries — and on bodies that are damaged *behind a valid CRC* the
//! decoder's verdict is "reject" for every byte string the encoder could
//! not have written, and the two chunk tables of a link stay in lockstep.

use std::collections::{BTreeMap, BTreeSet};

use asbestos_cluster::wire::{frame_crc, ChunkTable, HEADER_LEN, SLOTS};
use asbestos_cluster::{decode_frame, encode_frame, WireMsg};
use asbestos_kernel::{Payload, Value};
use asbestos_labels::chunk::{pack, Chunk, CHUNK_CAP};
use asbestos_labels::{Handle, Label, Level, HANDLE_SPACE};
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
        "[a-z0-9 _é☃'%-]{0,16}".prop_map(Value::from),
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

/// Two messages for one link. Where bit `i` of `reuse` is set, the second
/// carries the first's `i`th label in the same place — the same chunks, so
/// over the table the first frame warmed it references what that frame
/// defined.
fn arb_link() -> impl Strategy<Value = (WireMsg, WireMsg)> {
    (arb_msg(), arb_msg(), 0u8..16).prop_map(|(first, mut second, reuse)| {
        if let (
            WireMsg::Forward { es, ds, dr, v, .. },
            WireMsg::Forward {
                es: e,
                ds: d,
                dr: r,
                v: w,
                ..
            },
        ) = (&first, &mut second)
        {
            for (i, (old, new)) in [es, ds, dr, v].into_iter().zip([e, d, r, w]).enumerate() {
                if reuse >> i & 1 == 1 {
                    *new = old.clone();
                }
            }
        }
        (first, second)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The CRC guards against accident, not intent, so the body decoder
    /// must stand on its own: damage the *body* of a link's second frame,
    /// re-patch length and CRC, decode it over the table the first frame
    /// warmed, and
    /// (a) the complete frame is a message or an error — no panic, no
    ///     "need more bytes";
    /// (b) whatever decodes re-encodes, from the same table state, to the
    ///     very bytes it came from: the codec is canonical for all input
    ///     it accepts, not only for the encoder's output.
    #[test]
    fn crc_valid_mutations(
        link in arb_link(),
        edits in prop::collection::vec((0u8..5, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let (first, second) = link;
        let (mut sender, mut receiver) = (ChunkTable::default(), ChunkTable::default());
        let mut frame = Vec::new();
        sender.encode_frame(&first, &mut frame);
        receiver.decode_frame(&frame).expect("first frame decodes").expect("complete");
        frame.clear();
        sender.encode_frame(&second, &mut frame);
        let mut body = frame.split_off(HEADER_LEN);
        for edit in edits {
            mutate(&mut body, edit);
        }
        frame[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
        // The second frame on the link: CRC-valid at index 1.
        frame[9..13].copy_from_slice(&frame_crc(1, &body).to_le_bytes());
        frame.extend_from_slice(&body);

        let mut warm = receiver.clone();
        let decoded = receiver.decode_frame(&frame);
        prop_assert_ne!(&decoded, &Ok(None));
        if let Ok(Some((msg, used))) = decoded {
            prop_assert_eq!(used, frame.len());
            let mut again = Vec::new();
            warm.encode_frame(&msg, &mut again);
            prop_assert_eq!(again, frame);
        }
    }
}

/// The chunks a lockstep link draws its labels from: more than a table
/// holds, so the link both references and evicts. Chunk `i` holds handles
/// in `[1000 i, 1000 i + 1000)` at levels ⋆, 0 and 3, so ascending indices
/// are ascending chunks and neither label default, 1 or 2, is among them.
fn arb_pool() -> impl Strategy<Value = Vec<Chunk>> {
    let level = prop_oneof![Just(Level::Star), Just(Level::L0), Just(Level::L3)];
    let chunk = prop::collection::vec((0u64..1000, level), 1..CHUNK_CAP + 1);
    prop::collection::vec(chunk, SLOTS + 1..2 * SLOTS).prop_map(|chunks| {
        (0u64..)
            .zip(chunks)
            .map(|(i, entries)| {
                // Sorted and one entry per handle.
                let entries: BTreeMap<u64, Level> = entries.into_iter().collect();
                let packed: Vec<u64> = entries
                    .into_iter()
                    .map(|(h, l)| pack(1000 * i + h, l))
                    .collect();
                Chunk::from_entries(&packed)
            })
            .collect()
    })
}

/// A label over the pool: default 2 or 1, and the chunks at these indices
/// modulo the pool's size.
fn pool_label(pool: &[Chunk], (two, picks): &(bool, Vec<usize>)) -> Label {
    let picks: BTreeSet<usize> = picks.iter().map(|i| i % pool.len()).collect();
    let chunks = picks.into_iter().map(|i| pool[i].clone()).collect();
    let default = if *two { Level::L2 } else { Level::L1 };
    Label::from_chunks(default, chunks).expect("pool chunks ascend")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One link direction, its two tables in lockstep: 200+ `Forward`s
    /// whose labels share chunks drawn from the pool go through the
    /// sender's table and the receiver's. Each decodes equal to what was
    /// sent, and the tables stay twins: from a copy of the sender's table
    /// as it was, the sent message re-encodes to the same bytes, and so
    /// does the decoded one from a copy of the receiver's. References and
    /// evictions both happen.
    #[test]
    fn tables_stay_in_lockstep(
        pool in arb_pool(),
        specs in prop::collection::vec(
            (
                (any::<bool>(), prop::collection::vec(0..2 * SLOTS, 0..12)),
                (any::<bool>(), prop::collection::vec(0..2 * SLOTS, 0..12)),
                (any::<bool>(), prop::collection::vec(0..2 * SLOTS, 0..12)),
                (any::<bool>(), prop::collection::vec(0..2 * SLOTS, 0..12)),
            ),
            200..240,
        ),
    ) {
        let (mut sender, mut receiver) = (ChunkTable::default(), ChunkTable::default());
        let mut sent: Vec<Chunk> = Vec::new();
        let (mut references, mut evictions) = (0, 0);
        for (n, (es, ds, dr, v)) in (0u64..).zip(&specs) {
            let [es, ds, dr, v] = [es, ds, dr, v].map(|s| pool_label(&pool, s));
            let chunks: Vec<Chunk> =
                [&es, &ds, &dr, &v].into_iter().flat_map(|l| l.chunks()).cloned().collect();
            // Only chunks sent in earlier messages count as evicted: the
            // labels of one message may share a chunk the sender has not
            // yet seen.
            let earlier = sent.len();
            for chunk in &chunks {
                if sender.holds(chunk) {
                    references += 1;
                } else if sent[..earlier].iter().any(|s| Chunk::ptr_eq(s, chunk)) {
                    evictions += 1;
                } else if !sent.iter().any(|s| Chunk::ptr_eq(s, chunk)) {
                    sent.push(chunk.clone());
                }
            }
            let msg = WireMsg::Forward { port: Handle::from_raw(n), es, ds, dr, v, body: Value::Unit };

            let (sender_was, receiver_was) = (sender.clone(), receiver.clone());
            let mut frame = Vec::new();
            sender.encode_frame(&msg, &mut frame);
            let (got, used) = receiver.decode_frame(&frame).expect("own frame decodes").expect("complete");
            prop_assert_eq!(used, frame.len());
            prop_assert_eq!(&got, &msg);
            for (mut table, msg) in [(sender_was, &msg), (receiver_was, &got)] {
                let mut again = Vec::new();
                table.encode_frame(msg, &mut again);
                prop_assert_eq!(&again, &frame);
            }
        }
        prop_assert!(references > 0 && evictions > 0, "{} references, {} evictions", references, evictions);
    }
}

/// Pinned edges the generators cover randomly: the maximum handle, a
/// uniform label with no explicit entries, and an all-⋆ label — the
/// shapes whose packing is most easily broken by an off-by-one.
#[test]
fn pinned_edges_round_trip() {
    let max = Handle::from_raw(HANDLE_SPACE - 1);
    let msgs = [
        WireMsg::EnvSet {
            key: "max".into(),
            value: Value::Handle(max),
        },
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
