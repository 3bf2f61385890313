//! Property-based tests for the label algebra.
//!
//! Three families:
//!
//! 1. **Representation equivalence** — every operation on the chunked
//!    [`Label`] must agree with the naive `BTreeMap` oracle
//!    ([`NaiveLabel`]), including after arbitrary mutation sequences that
//!    exercise chunk splits, merges, and copy-on-write sharing.
//! 2. **Lattice laws** — labels under `⊑`/`⊔`/`⊓` form a lattice (§5.1
//!    cites Denning's lattice model); we verify partial-order laws, bound
//!    properties, absorption, and the paper's specific claims (e.g. the
//!    `Q_S⋆` star-preservation in contamination).
//! 3. **Chunk sharing** — the operations decide whole chunks of a large
//!    label from their level marks, evaluate the small labels' handles as
//!    points, and share every chunk no point changes; every oracle property
//!    is therefore also run over multi-chunk operands (wide labels, the
//!    OKWS shape — hundreds to thousands of `⋆` entries on cipher-spread
//!    handles against a handful of taint/grant entries — and two large
//!    labels that disagree everywhere), and structural tests pin what is
//!    shared, what is allocated and what is examined one by one.
//! 4. **Identity operands** — the fused forms drop `D_R = {⋆}`, `V = {3}`,
//!    `p_R = {3}` and `D_S = {3}` before evaluating, and skip a large
//!    operand whose every entry level is decided; strategies that draw
//!    those often, and a uniform label at every other level as often,
//!    check each shortcut against the composed operations and the oracle.

use std::borrow::Cow;
use std::sync::OnceLock;

use asbestos_labels::chunk::{Chunk, CHUNK_CAP};
use asbestos_labels::naive::NaiveLabel;
use asbestos_labels::ops;
use asbestos_labels::{Handle, HandleCipher, Label, Level};
use proptest::prelude::*;

/// A small handle domain so operations collide often.
fn arb_handle() -> impl Strategy<Value = Handle> {
    (0u64..48).prop_map(Handle::from_raw)
}

/// A wide handle domain to exercise chunk boundaries.
fn arb_wide_handle() -> impl Strategy<Value = Handle> {
    (0u64..100_000).prop_map(Handle::from_raw)
}

fn arb_level() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Star),
        Just(Level::L0),
        Just(Level::L1),
        Just(Level::L2),
        Just(Level::L3),
    ]
}

prop_compose! {
    fn arb_label()(
        default in arb_level(),
        pairs in prop::collection::vec((arb_handle(), arb_level()), 0..24),
    ) -> Label {
        Label::from_pairs(default, &pairs)
    }
}

prop_compose! {
    fn arb_wide_label()(
        default in arb_level(),
        pairs in prop::collection::vec((arb_wide_handle(), arb_level()), 0..300),
    ) -> Label {
        Label::from_pairs(default, &pairs)
    }
}

/// Handles as the kernel allocates them (§5.1): an encrypted counter, so
/// consecutive allocations land all over the 61-bit space — and all over a
/// large label's chunks.
fn okws_handles() -> &'static [Handle] {
    static HANDLES: OnceLock<Vec<Handle>> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let cipher = HandleCipher::new(0xA5BE);
        (0..2_600)
            .map(|i| Handle::from_raw(cipher.encrypt(i)))
            .collect()
    })
}

/// A few entries on allocated handles: a worker's label, a message's
/// optional labels, the taint/grant entries of a front end.
fn arb_okws_entries() -> impl Strategy<Value = Vec<(Handle, Level)>> {
    prop::collection::vec((0usize..2_600, arb_level()), 0..7).prop_map(|picks| {
        picks
            .iter()
            .map(|&(i, lv)| (okws_handles()[i], lv))
            .collect()
    })
}

// netd/demux-shaped: 300–2,500 entries at one level (`⋆` for a send
// label's privileges, 3 for a receive label's accepted taints) plus 0–6
// others. Built by `set` in allocation order — chunks split and fill the
// way the kernel's do — or in bulk by `from_pairs`.
prop_compose! {
    fn arb_okws_big()(
        default in arb_level(),
        bulk in prop_oneof![Just(Level::Star), Just(Level::Star), Just(Level::L3)],
        n in 300usize..2_500,
        extras in arb_okws_entries(),
        incremental in any::<bool>(),
    ) -> Label {
        let mut pairs: Vec<(Handle, Level)> =
            okws_handles()[..n].iter().map(|&h| (h, bulk)).collect();
        pairs.extend(extras);
        if incremental {
            let mut l = Label::new(default);
            for &(h, lv) in &pairs {
                l.set(h, lv);
            }
            l
        } else {
            Label::from_pairs(default, &pairs)
        }
    }
}

prop_compose! {
    fn arb_okws_small()(default in arb_level(), pairs in arb_okws_entries()) -> Label {
        Label::from_pairs(default, &pairs)
    }
}

/// An OKWS-shaped operand: large or small, any default (so decontamination
/// labels with privileged defaults are drawn too).
fn arb_okws_label() -> impl Strategy<Value = Label> {
    prop_oneof![arb_okws_big(), arb_okws_small(), arb_okws_small()]
}

// Multi-chunk labels over a handle domain small enough that operands name
// the same handles, end chunks on each other's entries and nest several
// chunks inside one chunk of another: every boundary an evaluation meets.
// Grown densely (sequential `set`s split into ~19 chunks), then thinned —
// removal empties chunks without merging them — then salted.
prop_compose! {
    fn arb_dense_label()(
        default in arb_level(),
        bulk in arb_level(),
        keep_one_in in 1u64..12,
        phase in 0u64..12,
        salt in prop::collection::vec((0u64..600, arb_level()), 0..6),
    ) -> Label {
        let mut l = Label::new(default);
        for h in 0..600 {
            l.set(Handle::from_raw(h), bulk);
        }
        for h in (0..600).filter(|h| (h + phase) % keep_one_in != 0) {
            l.set(Handle::from_raw(h), default);
        }
        for (h, lv) in salt {
            l.set(Handle::from_raw(h), lv);
        }
        l
    }
}

fn to_naive(l: &Label) -> NaiveLabel {
    NaiveLabel::from(l)
}

/// Checks a computed label: representation invariants and logical
/// equality with the oracle.
fn assert_is(got: &Label, want: &NaiveLabel) {
    got.check_invariants();
    assert_eq!(&to_naive(got), want);
}

/// `⊑`, `⊔`, `⊓` and `L⋆` against the oracle.
fn check_lattice_ops(a: &Label, b: &Label) {
    let (na, nb) = (to_naive(a), to_naive(b));
    assert_eq!(a.leq(b), na.leq(&nb));
    assert_is(&a.lub(b), &na.lub(&nb));
    assert_is(&a.glb(b), &na.glb(&nb));
    assert_is(&a.stars_only(), &na.stars_only());
}

/// Requirement (1) fused, composed from lattice operations, and composed
/// on the oracle must all agree.
fn check_fused_delivery(es: &Label, qr: &Label, dr: &Label, v: &Label, pr: &Label) {
    let fused = ops::check_delivery(es, qr, dr, v, pr);
    let composed = es.leq(&qr.lub(dr).glb(v).glb(pr));
    let oracle = to_naive(es).leq(
        &to_naive(qr)
            .lub(&to_naive(dr))
            .glb(&to_naive(v))
            .glb(&to_naive(pr)),
    );
    assert_eq!(fused, oracle);
    assert_eq!(composed, oracle);
}

/// `Q_S ← (Q_S ⊓ D_S) ⊔ (E_S ⊓ Q_S⋆)` fused, composed, and on the oracle;
/// borrowed exactly when `Q_S` is unchanged.
fn check_fused_contamination(qs: &Label, ds: &Label, es: &Label) {
    let fused = ops::apply_receive_contamination(qs, ds, es);
    let composed = qs.glb(ds).lub(&es.glb(&qs.stars_only()));
    let (nqs, nds, nes) = (to_naive(qs), to_naive(ds), to_naive(es));
    let oracle = nqs.glb(&nds).lub(&nes.glb(&nqs.stars_only()));
    assert_is(&fused, &oracle);
    assert_is(&composed, &oracle);
    assert_eq!(matches!(fused, Cow::Borrowed(_)), oracle == nqs);
}

/// Requirements (2) and (3) against their definitions, quantified over the
/// full (infinite) handle domain — the union of explicit handles plus a
/// fresh probe handle for the defaults.
fn check_privileges(lbl: &Label, ps: &Label) {
    let probe = Handle::from_raw(1 << 60);
    let handles = || lbl.iter().chain(ps.iter()).map(|(h, _)| h).chain([probe]);
    let expect_ds = handles().all(|h| lbl.get(h) >= Level::L3 || ps.get(h) == Level::Star);
    assert_eq!(ops::check_decont_send_privilege(lbl, ps), expect_ds);
    let expect_dr = handles().all(|h| lbl.get(h) <= Level::Star || ps.get(h) == Level::Star);
    assert_eq!(ops::check_decont_recv_privilege(lbl, ps), expect_dr);
}

proptest! {
    // ------------------------------------------------------------------
    // Representation equivalence against the oracle.
    // ------------------------------------------------------------------

    #[test]
    fn get_matches_oracle(l in arb_wide_label(), h in arb_wide_handle()) {
        let n = to_naive(&l);
        prop_assert_eq!(l.get(h), n.get(h));
    }

    #[test]
    fn mutation_sequence_matches_oracle(
        default in arb_level(),
        steps in prop::collection::vec((arb_wide_handle(), arb_level()), 0..400),
    ) {
        let mut l = Label::new(default);
        let mut n = NaiveLabel::new(default);
        for (h, lv) in steps {
            l.set(h, lv);
            n.set(h, lv);
            prop_assert_eq!(l.entry_count(), n.entry_count());
        }
        l.check_invariants();
        prop_assert_eq!(to_naive(&l), n);
    }

    /// Duplicates (last pair wins) and default-level pairs (no entry) in
    /// any order, over up to four chunks: every chunk but the last is full.
    #[test]
    fn from_pairs_matches_oracle(
        default in arb_level(),
        pairs in prop::collection::vec(((0u64..200).prop_map(Handle::from_raw), arb_level()), 0..300),
    ) {
        let l = Label::from_pairs(default, &pairs);
        let mut n = NaiveLabel::new(default);
        for &(h, lv) in &pairs {
            n.set(h, lv);
        }
        assert_is(&l, &n);
        if let Some((_, full)) = l.chunks().split_last() {
            prop_assert!(full.iter().all(|c| c.len() == CHUNK_CAP));
        }
    }

    #[test]
    fn leq_matches_oracle(a in arb_label(), b in arb_label()) {
        prop_assert_eq!(a.leq(&b), to_naive(&a).leq(&to_naive(&b)));
    }

    #[test]
    fn leq_matches_oracle_wide(a in arb_wide_label(), b in arb_wide_label()) {
        prop_assert_eq!(a.leq(&b), to_naive(&a).leq(&to_naive(&b)));
    }

    #[test]
    fn lub_matches_oracle(a in arb_label(), b in arb_label()) {
        let got = a.lub(&b);
        got.check_invariants();
        prop_assert_eq!(to_naive(&got), to_naive(&a).lub(&to_naive(&b)));
    }

    #[test]
    fn glb_matches_oracle(a in arb_label(), b in arb_label()) {
        let got = a.glb(&b);
        got.check_invariants();
        prop_assert_eq!(to_naive(&got), to_naive(&a).glb(&to_naive(&b)));
    }

    #[test]
    fn lub_glb_match_oracle_wide(a in arb_wide_label(), b in arb_wide_label()) {
        check_lattice_ops(&a, &b);
    }

    #[test]
    fn lattice_ops_match_oracle_dense(a in arb_dense_label(), b in arb_dense_label()) {
        check_lattice_ops(&a, &b);
    }

    #[test]
    fn stars_only_matches_oracle(a in arb_label()) {
        let got = a.stars_only();
        got.check_invariants();
        prop_assert_eq!(to_naive(&got), to_naive(&a).stars_only());
    }

    // ------------------------------------------------------------------
    // Lattice laws (§5.1).
    // ------------------------------------------------------------------

    #[test]
    fn leq_reflexive(a in arb_label()) {
        prop_assert!(a.leq(&a));
    }

    #[test]
    fn leq_antisymmetric(a in arb_label(), b in arb_label()) {
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn leq_transitive(a in arb_label(), b in arb_label(), c in arb_label()) {
        if a.leq(&b) && b.leq(&c) {
            prop_assert!(a.leq(&c));
        }
    }

    #[test]
    fn lub_is_least_upper_bound(a in arb_label(), b in arb_label(), c in arb_label()) {
        let join = a.lub(&b);
        // Upper bound:
        prop_assert!(a.leq(&join));
        prop_assert!(b.leq(&join));
        // Least: any other upper bound dominates the join.
        if a.leq(&c) && b.leq(&c) {
            prop_assert!(join.leq(&c));
        }
    }

    #[test]
    fn glb_is_greatest_lower_bound(a in arb_label(), b in arb_label(), c in arb_label()) {
        let meet = a.glb(&b);
        prop_assert!(meet.leq(&a));
        prop_assert!(meet.leq(&b));
        if c.leq(&a) && c.leq(&b) {
            prop_assert!(c.leq(&meet));
        }
    }

    #[test]
    fn lub_commutative_associative(a in arb_label(), b in arb_label(), c in arb_label()) {
        prop_assert_eq!(a.lub(&b), b.lub(&a));
        prop_assert_eq!(a.lub(&b).lub(&c), a.lub(&b.lub(&c)));
    }

    #[test]
    fn glb_commutative_associative(a in arb_label(), b in arb_label(), c in arb_label()) {
        prop_assert_eq!(a.glb(&b), b.glb(&a));
        prop_assert_eq!(a.glb(&b).glb(&c), a.glb(&b.glb(&c)));
    }

    #[test]
    fn absorption_laws(a in arb_label(), b in arb_label()) {
        prop_assert_eq!(a.lub(&a.glb(&b)), a.clone());
        prop_assert_eq!(a.glb(&a.lub(&b)), a.clone());
    }

    #[test]
    fn lub_glb_idempotent(a in arb_label()) {
        prop_assert_eq!(a.lub(&a), a.clone());
        prop_assert_eq!(a.glb(&a), a.clone());
    }

    #[test]
    fn stars_only_idempotent(a in arb_label()) {
        let s = a.stars_only();
        prop_assert_eq!(s.stars_only(), s);
    }

    #[test]
    fn bottom_top_are_extremes(a in arb_label()) {
        prop_assert!(Label::bottom().leq(&a));
        prop_assert!(a.leq(&Label::top()));
    }

    // ------------------------------------------------------------------
    // Fused Figure 4 operations vs composed lattice operations.
    // ------------------------------------------------------------------

    #[test]
    fn fused_delivery_check_matches_composition(
        es in arb_label(), qr in arb_label(), dr in arb_label(),
        v in arb_label(), pr in arb_label(),
    ) {
        check_fused_delivery(&es, &qr, &dr, &v, &pr);
    }

    #[test]
    fn fused_delivery_check_matches_composition_wide(
        es in arb_wide_label(), qr in arb_wide_label(), dr in arb_wide_label(),
        v in arb_wide_label(), pr in arb_wide_label(),
    ) {
        check_fused_delivery(&es, &qr, &dr, &v, &pr);
    }

    #[test]
    fn fused_delivery_check_matches_composition_dense(
        es in arb_dense_label(), qr in arb_dense_label(), dr in arb_dense_label(),
        v in arb_dense_label(), pr in arb_dense_label(),
    ) {
        check_fused_delivery(&es, &qr, &dr, &v, &pr);
    }

    #[test]
    fn fused_contamination_matches_composition(
        qs in arb_label(), ds in arb_label(), es in arb_label(),
    ) {
        check_fused_contamination(&qs, &ds, &es);
    }

    #[test]
    fn fused_contamination_matches_composition_dense(
        qs in arb_dense_label(), ds in arb_dense_label(), es in arb_dense_label(),
    ) {
        check_fused_contamination(&qs, &ds, &es);
    }

    #[test]
    fn fused_contamination_matches_composition_wide(
        qs in arb_wide_label(), ds in arb_wide_label(), es in arb_wide_label(),
    ) {
        check_fused_contamination(&qs, &ds, &es);
    }

    #[test]
    fn contamination_never_removes_stars(
        qs in arb_label(), ds_pairs in prop::collection::vec((arb_handle(), arb_level()), 0..8),
        es in arb_label(),
    ) {
        // D_S can only *add* privilege; contamination can never strip a ⋆
        // the receiver already holds (§5.3: "Only a process itself can
        // remove ⋆ levels from its send label").
        let ds = Label::from_pairs(Level::L3, &ds_pairs);
        let out = ops::apply_receive_contamination(&qs, &ds, &es);
        for (h, lv) in qs.iter() {
            if lv == Level::Star {
                prop_assert_eq!(out.get(h), Level::Star);
            }
        }
        if qs.default_level() == Level::Star {
            prop_assert_eq!(out.default_level(), Level::Star);
        }
    }

    #[test]
    fn contamination_monotone_in_es(
        qs in arb_label(), es1 in arb_label(), es2 in arb_label(),
    ) {
        // More contamination in never yields less contamination out.
        if es1.leq(&es2) {
            let out1 = ops::apply_receive_contamination(&qs, &Label::top(), &es1);
            let out2 = ops::apply_receive_contamination(&qs, &Label::top(), &es2);
            prop_assert!(out1.leq(&out2));
        }
    }

    #[test]
    fn delivery_monotone_in_receive_label(
        es in arb_label(), qr1 in arb_label(), qr2 in arb_label(),
    ) {
        // Raising a receive label only ever admits more messages.
        if qr1.leq(&qr2) {
            let (dr, v, pr) = (Label::bottom(), Label::top(), Label::top());
            if ops::check_delivery(&es, &qr1, &dr, &v, &pr) {
                prop_assert!(ops::check_delivery(&es, &qr2, &dr, &v, &pr));
            }
        }
    }

    #[test]
    fn privilege_checks_match_definitions(lbl in arb_label(), ps in arb_label()) {
        check_privileges(&lbl, &ps);
    }

    #[test]
    fn privilege_checks_match_definitions_wide(lbl in arb_wide_label(), ps in arb_wide_label()) {
        check_privileges(&lbl, &ps);
    }

    #[test]
    fn privilege_checks_match_definitions_dense(lbl in arb_dense_label(), ps in arb_dense_label()) {
        check_privileges(&lbl, &ps);
    }

    #[test]
    fn heap_bytes_minimum_holds(a in arb_wide_label()) {
        // Every label costs at least the paper's ~300-byte minimum and
        // grows by at most a bounded factor per entry.
        let bytes = a.heap_bytes();
        prop_assert!(bytes >= 300);
        prop_assert!(bytes <= 300 + 24 * a.entry_count().max(1) + 16 * (a.entry_count() / 32 + 1));
    }

    #[test]
    fn equality_consistent_with_leq(a in arb_label(), b in arb_label()) {
        prop_assert_eq!(a == b, a.leq(&b) && b.leq(&a));
    }
}

/// Deterministic regression cases distilled from early proptest failures and
/// paper examples.
#[test]
fn regression_default_only_differs() {
    let a = Label::new(Level::L0);
    let b = Label::new(Level::L2);
    assert!(a.leq(&b));
    assert!(!b.leq(&a));
    assert_eq!(a.lub(&b).default_level(), Level::L2);
    assert_eq!(a.glb(&b).default_level(), Level::L0);
}

#[test]
fn regression_entry_vs_other_default() {
    // a = {h5 0, 3}, b = {1}: a ⋢ b because default 3 > 1; b ⋢ a because
    // b(h5) = 1 > a(h5) = 0.
    let h5 = Handle::from_raw(5);
    let a = Label::from_pairs(Level::L3, &[(h5, Level::L0)]);
    let b = Label::default_send();
    assert!(!a.leq(&b));
    assert!(!b.leq(&a));
    let join = a.lub(&b);
    assert_eq!(join.get(h5), Level::L1);
    assert_eq!(join.default_level(), Level::L3);
}

#[test]
fn regression_mls_emulation() {
    // §5.2 "Multi-level policies": unclassified/secret/top-secret from two
    // compartments s and t.
    let s = Handle::from_raw(1);
    let t = Handle::from_raw(2);
    let unclass_send = Label::default_send();
    let secret_send = Label::from_pairs(Level::L1, &[(s, Level::L3)]);
    let topsecret_send = Label::from_pairs(Level::L1, &[(s, Level::L3), (t, Level::L3)]);
    let unclass_recv = Label::default_recv();
    let secret_recv = Label::from_pairs(Level::L2, &[(s, Level::L3)]);
    let topsecret_recv = Label::from_pairs(Level::L2, &[(s, Level::L3), (t, Level::L3)]);

    // Writes up are allowed, reads up are not.
    assert!(unclass_send.leq(&secret_recv));
    assert!(unclass_send.leq(&topsecret_recv));
    assert!(secret_send.leq(&topsecret_recv));
    assert!(!secret_send.leq(&unclass_recv));
    assert!(!topsecret_send.leq(&secret_recv));
    assert!(!topsecret_send.leq(&unclass_recv));

    // The "odd" label {t 3, 1} can still only reach top-secret clearance.
    let odd = Label::from_pairs(Level::L1, &[(t, Level::L3)]);
    assert!(!odd.leq(&secret_recv));
    assert!(odd.leq(&topsecret_recv));
}

// ---------------------------------------------------------------------
// OKWS-shaped operands: the same oracle properties where the evaluation
// actually skips and shares (labels.entries_max 774 / 2,498 in benchmark/).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lattice_ops_match_oracle_okws(a in arb_okws_label(), b in arb_okws_label()) {
        check_lattice_ops(&a, &b);
    }

    #[test]
    fn fused_delivery_check_matches_composition_okws(
        es in arb_okws_label(), qr in arb_okws_label(), dr in arb_okws_small(),
        v in arb_okws_small(), pr in arb_okws_label(),
    ) {
        check_fused_delivery(&es, &qr, &dr, &v, &pr);
    }

    #[test]
    fn fused_contamination_matches_composition_okws(
        qs in arb_okws_label(), ds in arb_okws_small(), es in arb_okws_label(),
    ) {
        check_fused_contamination(&qs, &ds, &es);
    }

    #[test]
    fn privilege_checks_match_definitions_okws(lbl in arb_okws_small(), ps in arb_okws_label()) {
        check_privileges(&lbl, &ps);
        check_privileges(&ps, &lbl);
    }

    /// `big ∘ small` shares all but the chunks `small` reaches into, and
    /// walks only those: the result costs its difference from `big`.
    #[test]
    fn big_op_small_shares_and_skips(big in arb_okws_big(), entries in arb_okws_entries()) {
        // Small operands whose *default* is neutral for the operation, as
        // every optional Figure 4 label's is: `{… ⋆}` under ⊔ (C_S, D_R,
        // a contaminating E_S), `{… 3}` under ⊓ (D_S, V).
        let es = Label::from_pairs(Level::Star, &entries);
        let ds = Label::from_pairs(Level::L3, &entries);
        // An entry costs the chunk it lands in — two when that chunk was
        // full and splits.
        let reached = 2 * entries.len() + 2;
        for result in [
            big.join(&es),
            big.meet(&ds),
            ops::apply_receive_contamination(&big, &ds, &es),
        ] {
            match result {
                Cow::Borrowed(_) => {}
                Cow::Owned(out) => {
                    out.check_invariants();
                    let unshared = out.chunk_count() - out.chunks_shared_with(&big);
                    prop_assert!(unshared <= reached, "{unshared} new chunks for {reached}");
                }
            }
        }
        // One pass: each small operand's entries are read once, and every
        // chunk of a large `big` fits its mask (a neutral default decides
        // them all). A `big` whose bulk level is its default is small
        // itself.
        let small = |l: &Label| if l.chunk_count() <= 1 { l.entry_count() as u64 } else { 0 };
        let (es_n, ds_n, big_n) = (small(&es), small(&ds), small(&big));
        let visited = Label::entries_visited();
        let _ = ops::check_delivery(&es, &big, &Label::bottom(), &Label::top(), &Label::top());
        prop_assert!(Label::entries_visited() - visited <= es_n + big_n);
        let visited = Label::entries_visited();
        let allocated = Chunk::alloc_count();
        let _ = ops::apply_receive_contamination(&big, &ds, &es);
        prop_assert!(Label::entries_visited() - visited <= es_n + ds_n + big_n);
        prop_assert!(Chunk::alloc_count() - allocated <= reached as u64);
    }
}

// ---------------------------------------------------------------------
// The edge cases of the one-pass evaluation: large operands whose masks
// decide little, points between chunks, and results built from nothing.
// ---------------------------------------------------------------------

// Two large labels over the same cipher-spread handles that disagree chunk
// after chunk: one at a bulk level, the other at levels drawn per handle,
// so neither operand's marks fit a mask and most handles are points.
prop_compose! {
    fn arb_disagreeing_pair()(
        defaults in (arb_level(), arb_level()),
        bulk in arb_level(),
        levels in prop::collection::vec(arb_level(), 200..900),
        offset in 0usize..200,
    ) -> (Label, Label) {
        let handles = &okws_handles()[offset..offset + levels.len()];
        let bulk_pairs: Vec<(Handle, Level)> = handles.iter().map(|&h| (h, bulk)).collect();
        let drawn: Vec<(Handle, Level)> = handles.iter().copied().zip(levels).collect();
        (Label::from_pairs(defaults.0, &bulk_pairs), Label::from_pairs(defaults.1, &drawn))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn two_large_operands_match_oracle(pair in arb_disagreeing_pair(), small in arb_okws_small()) {
        let (a, b) = pair;
        check_lattice_ops(&a, &b);
        check_lattice_ops(&b, &a);
        check_fused_delivery(&a, &b, &small, &Label::top(), &b);
        check_fused_delivery(&b, &a, &Label::bottom(), &small, &a);
        check_fused_contamination(&a, &small, &b);
        check_fused_contamination(&b, &Label::top(), &a);
        check_privileges(&a, &b);
    }

    /// A small operand naming a handle that falls between two chunks of a
    /// large label: evaluated exactly, and the edit lands between the
    /// chunks without rebuilding either.
    #[test]
    fn small_handle_between_large_chunks(
        default in arb_level(),
        bulk in arb_level(),
        gap in 0u64..9,
        level in arb_level(),
        small_default in prop_oneof![Just(Level::Star), Just(Level::L3)],
    ) {
        // Ten full chunks; chunk k ends at 10·(64k + 63) and the next one
        // starts at 10·64(k + 1).
        let pairs: Vec<(Handle, Level)> =
            (0..640).map(|i| (Handle::from_raw(10 * i), bulk)).collect();
        let big = Label::from_pairs(default, &pairs);
        let between = Handle::from_raw(10 * (64 * gap + 63) + 5);
        let small = Label::from_pairs(small_default, &[(between, level)]);
        check_lattice_ops(&big, &small);
        check_lattice_ops(&small, &big);
        check_fused_delivery(&small, &big, &Label::bottom(), &Label::top(), &big);
        check_fused_delivery(&big, &big, &small, &Label::top(), &Label::top());
        check_fused_contamination(&big, &small, &small);
        check_fused_contamination(&big, &Label::top(), &small);
        for result in [big.join(&small), big.meet(&small)] {
            if let Cow::Owned(out) = result {
                if out.default_level() == big.default_level() {
                    let unshared = out.chunk_count() - out.chunks_shared_with(&big);
                    prop_assert!(unshared <= 1, "{unshared} chunks rebuilt");
                }
            }
        }
    }
}

/// A result whose default is no operand's — `L⋆` of a label at a default
/// other than `⋆` or 3 — is built from an empty label at that default, its
/// points being exactly the operand's `⋆` entries.
#[test]
fn result_default_matching_no_operand() {
    let mut pairs: Vec<(Handle, Level)> = okws_handles()[..776]
        .iter()
        .map(|&h| (h, Level::Star))
        .collect();
    pairs.extend(okws_handles()[776..780].iter().map(|&h| (h, Level::L3)));
    for default in [Level::L0, Level::L1, Level::L2] {
        let label = Label::from_pairs(default, &pairs);
        let visited = Label::entries_visited();
        let stars = label.stars_only();
        // Every chunk holds a `⋆` (outside the mask), so all of them are
        // read, each entry once; each `⋆` among them is one point.
        assert_eq!(Label::entries_visited() - visited, 780);
        assert_is(&stars, &to_naive(&label).stars_only());
        assert_eq!(stars.default_level(), Level::L3);
        assert_eq!(stars.entry_count(), 776);
        assert_eq!(stars.chunks_shared_with(&label), 0);
    }
}

/// A result that equals an operand *is* that operand — nothing allocated,
/// pointer-equal chunk for chunk — for every way of leaving it unchanged.
#[test]
fn identity_results_are_the_operand() {
    let big = Label::from_pairs(
        Level::L1,
        &okws_handles()[..774]
            .iter()
            .map(|&h| (h, Level::Star))
            .collect::<Vec<_>>(),
    );
    let held = okws_handles()[5];
    let es = Label::from_pairs(Level::L1, &[(held, Level::L3)]);
    let ds = Label::from_pairs(Level::L3, &[(held, Level::Star)]);
    let allocated = Chunk::alloc_count();
    let clones = Label::clone_count();
    // ⊔ with something below it, ⊓ with something above it.
    assert!(matches!(big.join(&Label::bottom()), Cow::Borrowed(l) if std::ptr::eq(l, &big)));
    assert!(matches!(big.meet(&Label::top()), Cow::Borrowed(l) if std::ptr::eq(l, &big)));
    // Contamination on a handle the receiver holds at ⋆ (§5.3), and a
    // grant of a handle it already holds.
    let out = ops::apply_receive_contamination(&big, &ds, &es);
    assert!(matches!(out, Cow::Borrowed(l) if std::ptr::eq(l, &big)));
    assert_eq!(Chunk::alloc_count(), allocated);
    assert_eq!(Label::clone_count(), clones);
    // Handing the borrowed result on as an owned label shares every chunk.
    let owned = out.into_owned();
    assert_eq!(owned.chunks_shared_with(&big), big.chunk_count());
    assert_eq!(owned.chunk_count(), big.chunk_count());
}

/// One foreign entry costs the chunk it lands in, not the label.
#[test]
fn one_entry_contamination_shares_all_but_two_chunks() {
    let pairs: Vec<(Handle, Level)> = okws_handles()[..2_498]
        .iter()
        .map(|&h| (h, Level::Star))
        .collect();
    let bulk = Label::from_pairs(Level::L1, &pairs);
    let mut grown = Label::default_send();
    for &(h, lv) in &pairs {
        grown.set(h, lv);
    }
    let taint = okws_handles()[2_599];
    let small = Label::from_pairs(Level::Star, &[(taint, Level::L3)]);
    for big in [&bulk, &grown] {
        for out in [
            big.lub(&small),
            ops::apply_receive_contamination(big, &Label::top(), &small).into_owned(),
        ] {
            out.check_invariants();
            assert_eq!(out.entry_count(), 2_499);
            assert_eq!(out.get(taint), Level::L3);
            let unshared = out.chunk_count() - out.chunks_shared_with(big);
            assert!(unshared <= 2, "{unshared} chunks rebuilt for one entry");
        }
    }
}

/// A one-entry `⋆` grant (`D_S = {h ⋆, 3}`) to a front end's send label,
/// grown one `set` at a time as the kernel grows it: the result allocates
/// the one chunk the grant lands in and shares the other five.
#[test]
fn one_entry_grant_allocates_one_chunk() {
    let mut qs = Label::default_send();
    for &h in &okws_handles()[..276] {
        qs.set(h, Level::Star);
    }
    assert_eq!(qs.chunk_count(), 6);
    let fresh = okws_handles()[276];
    let ds = Label::from_pairs(Level::L3, &[(fresh, Level::Star)]);
    let allocated = Chunk::alloc_count();
    let out = ops::apply_receive_contamination(&qs, &ds, &Label::bottom());
    assert_eq!(Chunk::alloc_count() - allocated, 1);
    let Cow::Owned(out) = out else {
        panic!("a grant of a fresh handle changes Q_S");
    };
    out.check_invariants();
    assert_eq!(out.get(fresh), Level::Star);
    assert_eq!(out.entry_count(), 277);
    assert_eq!(out.chunk_count(), 6);
    assert_eq!(out.chunks_shared_with(&qs), 5);
}

/// Sharing never fragments: labels passed through many small edits keep
/// at least half-full chunks on average, so `heap_bytes` stays within the
/// same bound a freshly built label meets.
#[test]
fn repeated_sharing_does_not_fragment() {
    let mut label = Label::default_send();
    for (i, &h) in okws_handles().iter().enumerate() {
        let one = Label::from_pairs(Level::Star, &[(h, Level::L3)]);
        label = if i % 2 == 0 {
            label.lub(&one)
        } else {
            ops::apply_receive_contamination(&label, &Label::top(), &one).into_owned()
        };
    }
    label.check_invariants();
    assert_eq!(label.entry_count(), okws_handles().len());
    let chunks = label.chunk_count();
    assert!(
        chunks <= 2 * okws_handles().len() / CHUNK_CAP + 1,
        "{chunks} chunks"
    );
}

// ---------------------------------------------------------------------
// Identity operands: `D_R = {⋆}` under ⊔ and `V`, `p_R`, `D_S` = {3} under
// ⊓ are dropped before the pass, and a large operand whose every entry
// level is decided is skipped whole. The strategies draw each identity
// often and a uniform label at another level as often: those are what a
// too-loose identity test would drop as well.
// ---------------------------------------------------------------------

/// An optional Figure 4 operand whose identity is the uniform label at
/// `identity`: that identity (two draws in five), a uniform label at any
/// level, the identity's default with a few entries, or any OKWS-shaped
/// label.
fn arb_optional(identity: Level) -> impl Strategy<Value = Label> {
    prop_oneof![
        Just(Label::new(identity)),
        Just(Label::new(identity)),
        arb_level().prop_map(Label::new),
        arb_okws_entries().prop_map(move |pairs| Label::from_pairs(identity, &pairs)),
        arb_okws_label(),
    ]
}

/// A large label whose entries all sit at `bulk` on a default of 1 or 2:
/// hundreds of accepted taints at 3 (a receive label, decided unseen by
/// the delivery check) or of `⋆` privileges (a send label, decided unseen
/// by contamination).
fn arb_decided_big(bulk: Level) -> impl Strategy<Value = Label> {
    (
        prop_oneof![Just(Level::L1), Just(Level::L2)],
        100usize..1_200,
        0usize..1_000,
    )
        .prop_map(move |(default, n, offset)| {
            let pairs: Vec<(Handle, Level)> = okws_handles()[offset..offset + n]
                .iter()
                .map(|&h| (h, bulk))
                .collect();
            Label::from_pairs(default, &pairs)
        })
}

/// A sender's or receiver's own label: a decided large one, any
/// OKWS-shaped one, or a uniform one.
fn arb_principal() -> impl Strategy<Value = Label> {
    prop_oneof![
        arb_decided_big(Level::L3),
        arb_decided_big(Level::Star),
        arb_okws_label(),
        arb_level().prop_map(Label::new),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn delivery_check_with_identity_operands_matches_oracle(
        es in arb_principal(), qr in arb_principal(), dr in arb_optional(Level::Star),
        v in arb_optional(Level::L3), pr in arb_optional(Level::L3),
    ) {
        check_fused_delivery(&es, &qr, &dr, &v, &pr);
    }

    #[test]
    fn contamination_with_identity_operands_matches_oracle(
        qs in arb_principal(), ds in arb_optional(Level::L3), es in arb_principal(),
    ) {
        check_fused_contamination(&qs, &ds, &es);
    }

    /// A decided large operand has no points: the evaluation examines the
    /// small operands' entries only, and still agrees with the oracle.
    #[test]
    fn a_decided_large_operand_is_skipped_whole(
        qr in arb_decided_big(Level::L3), qs in arb_decided_big(Level::Star),
        entries in arb_okws_entries(), port in arb_okws_entries(),
    ) {
        // Accepted taints at 3 decide `E_S ⊑ Q_R ⊓ p_R` for a sender at 1
        // and a port at 2, whatever those hold at a taint's handle.
        let es = Label::from_pairs(Level::L1, &entries);
        let pr = Label::from_pairs(Level::L2, &port);
        let (dr, v) = (Label::bottom(), Label::top());
        let visited = Label::entries_visited();
        let _ = ops::check_delivery(&es, &qr, &dr, &v, &pr);
        let examined = Label::entries_visited() - visited;
        prop_assert!(examined <= (es.entry_count() + pr.entry_count()) as u64);
        check_fused_delivery(&es, &qr, &dr, &v, &pr);

        // `⋆` privileges survive any contamination (§5.3).
        let contaminating = Label::from_pairs(Level::Star, &entries);
        let visited = Label::entries_visited();
        let _ = ops::apply_receive_contamination(&qs, &Label::top(), &contaminating);
        let examined = Label::entries_visited() - visited;
        prop_assert!(examined <= contaminating.entry_count() as u64);
        check_fused_contamination(&qs, &Label::top(), &contaminating);
    }
}

/// A uniform label at any level but its operator's identity is an operand
/// like any other: for each optional operand and each such level, a check
/// or an effect whose answer that label decides.
#[test]
fn only_the_identity_level_is_dropped() {
    let (bottom, top) = (Label::bottom(), Label::top());
    for level in Level::ALL {
        let uniform = Label::new(level);
        // `D_R = {l}`: `{l} ⊑ {⋆} ⊔ {l}` always; without `D_R`, only at ⋆.
        check_fused_delivery(&uniform, &bottom, &uniform, &top, &top);
        assert!(ops::check_delivery(&uniform, &bottom, &uniform, &top, &top));
        // `V = {l}` and `p_R = {l}`: `{3} ⊑ {3} ⊓ {l}` only at 3.
        check_fused_delivery(&top, &top, &bottom, &uniform, &top);
        check_fused_delivery(&top, &top, &bottom, &top, &uniform);
        let at_top = level == Level::L3;
        assert_eq!(
            ops::check_delivery(&top, &top, &bottom, &uniform, &top),
            at_top
        );
        assert_eq!(
            ops::check_delivery(&top, &top, &bottom, &top, &uniform),
            at_top
        );
        // `D_S = {l}`: `({3} ⊓ {l}) ⊔ ({⋆} ⊓ {3}⋆)` is `{l}`.
        check_fused_contamination(&top, &uniform, &bottom);
        assert_eq!(
            *ops::apply_receive_contamination(&top, &uniform, &bottom),
            uniform
        );
    }
}
