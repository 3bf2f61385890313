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
//! 3. **Chunk sharing** — the operations decide whole chunks from cached
//!    bounds and share them with their operands; every oracle property is
//!    therefore also run over multi-chunk operands (wide labels, and the
//!    OKWS shape: hundreds to thousands of `⋆` entries on cipher-spread
//!    handles against a handful of taint/grant entries), and structural
//!    tests pin what is shared, what is allocated and what is walked.

use std::borrow::Cow;
use std::sync::OnceLock;

use asbestos_labels::chunk::{entry_handle, pack, Chunk, CHUNK_CAP};
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
// chunks inside one chunk of another: every boundary the region walk has.
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
// OKWS-shaped operands: the same oracle properties where the run merge
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
        let visited = Label::entries_visited();
        let allocated = Chunk::alloc_count();
        let _ = ops::check_delivery(&es, &big, &Label::bottom(), &Label::top(), &Label::top());
        let _ = ops::apply_receive_contamination(&big, &ds, &es);
        prop_assert!(Label::entries_visited() - visited <= (3 * reached * CHUNK_CAP) as u64);
        prop_assert!(Chunk::alloc_count() - allocated <= reached as u64);
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

// ----------------------------------------------------------------------
// The canonical packed run: a label's one serialized form (the federation
// wire's), checked on the way back in and never repaired.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `packed_entries` → `from_packed_ascending` is the identity however
    /// the label's chunks came to be laid out (built, split, thinned,
    /// shared), and the rebuilt label is laid out — and so accounted — as
    /// `from_pairs` lays out the same entries.
    #[test]
    fn packed_run_rebuilds_the_label(
        l in prop_oneof![arb_label(), arb_wide_label(), arb_dense_label(), arb_okws_label()],
    ) {
        let got = Label::from_packed_ascending(l.default_level(), l.packed_entries())
            .expect("a label's own run is canonical");
        assert_is(&got, &to_naive(&l));
        prop_assert_eq!(&got, &l);
        let pairs: Vec<(Handle, Level)> = l.iter().collect();
        let fresh = Label::from_pairs(l.default_level(), &pairs);
        prop_assert_eq!(got.chunk_count(), fresh.chunk_count());
        prop_assert_eq!(got.heap_bytes(), fresh.heap_bytes());
    }

    /// Any other arrangement of the run is refused, not sorted,
    /// de-duplicated or normalized: two entries swapped, the run reversed,
    /// an entry repeated, an entry at the default level spliced in where
    /// its handle belongs, level bits no `Level` has.
    #[test]
    fn non_canonical_runs_are_refused(
        l in arb_wide_label(),
        i in any::<usize>(),
        j in any::<usize>(),
        h in arb_wide_handle(),
        bad_bits in 5u64..8,
    ) {
        let default = l.default_level();
        let run: Vec<u64> = l.packed_entries().collect();
        let build = |run: &[u64]| Label::from_packed_ascending(default, run.iter().copied());
        if run.len() >= 2 {
            let (i, j) = (i % run.len(), j % run.len());
            let mut swapped = run.clone();
            swapped.swap(i, j);
            prop_assert_eq!(build(&swapped).is_some(), i == j);
            let reversed: Vec<u64> = run.iter().rev().copied().collect();
            prop_assert!(build(&reversed).is_none());
        }
        if !run.is_empty() {
            let i = i % run.len();
            let mut repeated = run.clone();
            repeated.insert(i, run[i]);
            prop_assert!(build(&repeated).is_none());
            let mut garbled = run.clone();
            garbled[i] = (garbled[i] & !0x7) | bad_bits;
            prop_assert!(build(&garbled).is_none());
        }
        if l.get(h) == default {
            let at = run.partition_point(|&e| entry_handle(e) < h.raw());
            let mut padded = run.clone();
            padded.insert(at, pack(h.raw(), default));
            prop_assert!(build(&padded).is_none());
        }
    }
}

/// Dense chunks, one allocation each: a 780-entry label (demux's send
/// label on `fed-k2`) off the wire is exactly ⌈780 / 64⌉ = 13 chunks.
#[test]
fn a_780_entry_run_allocates_13_chunks() {
    let run: Vec<u64> = (0..780).map(|i| pack(i * 5 + 2, Level::Star)).collect();
    let before = Chunk::alloc_count();
    let label = Label::from_packed_ascending(Level::L1, run.iter().copied()).unwrap();
    assert_eq!(Chunk::alloc_count() - before, 13);
    assert_eq!(label.chunk_count(), 13);
    assert_eq!(label.entry_count(), 780);
    label.check_invariants();
}
