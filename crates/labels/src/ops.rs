//! Fused label operations for the Figure 4 system-call semantics.
//!
//! The kernel's hot path evaluates compositions like
//! `E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R` on every delivery. Building the three
//! intermediate labels would allocate; these helpers evaluate each
//! composition pointwise in one ascending pass instead (see `merge.rs`):
//! the small operands' handles are evaluated exactly,
//! and a large operand's chunks are decided from their level marks, so a
//! 776-entry `⋆` label checked against a port label with one entry costs
//! its chunks and that one point. An effect is one pass too: it edits the
//! points it changes into the receiver's label, and hands that label back
//! when no point changes it, so the kernel keeps the `Arc` it already
//! holds. Property tests verify each fused form against the composed
//! lattice operations and against [`crate::naive::NaiveLabel`].
//!
//! An operand that is the identity of its operator changes no level and is
//! dropped before the pass: `D_R = {⋆}` under `⊔`, and `V = {3}`, `p_R =
//! {3}` and `D_S = {3}` under `⊓`. Those are the defaults of the optional
//! labels, so a plain send's check runs as `E_S ⊑ Q_R ⊓ p_R` over three
//! operands, and its contamination as `Q_S ⊔ (E_S ⊓ Q_S⋆)` over two. An
//! identity is known from the label's level set alone: it takes one level
//! at every handle, and that level is the identity. So a uniform `D_R =
//! {0}`, or a `V` at default 3 with entries, is evaluated like any other.
//!
//! What an operation *charges* is a separate matter: [`op_work`] counts
//! every explicit entry of every operand, exactly as the paper's kernel
//! would have walked them (§5.6), however few the host walk touched.

use std::borrow::Cow;

use crate::label::Label;
use crate::level::{Level, LevelSet};
use crate::merge;

/// Work-size estimate for a fused operation over the given labels: the total
/// number of explicit entries visited. The kernel's cost model charges label
/// operations linearly in this quantity, which is what reproduces the linear
/// degradation of Figure 9.
pub fn op_work(labels: &[&Label]) -> usize {
    labels.iter().map(|l| l.entry_count()).sum()
}

/// Figure 4 requirement (1): `E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R`.
///
/// `es` is the sender's effective send label (`P_S ⊔ C_S`), `qr` the
/// receiver's receive label, `dr` the decontaminate-receive label, `v` the
/// verification label, and `pr` the destination port's receive label.
///
/// Identity operands are dropped first (see the module docs): with
/// `D_R = {⋆}` and `V = {3}` this is `E_S ⊑ Q_R ⊓ p_R`.
pub fn check_delivery(es: &Label, qr: &Label, dr: &Label, v: &Label, pr: &Label) -> bool {
    let dr = (!is_uniform_at(dr, Level::Star)).then_some(dr);
    let v = (!is_uniform_at(v, Level::L3)).then_some(v);
    let pr = (!is_uniform_at(pr, Level::L3)).then_some(pr);
    match (dr, v, pr) {
        (None, None, None) => es.leq(qr),
        (None, Some(m), None) | (None, None, Some(m)) => {
            merge::all([es, qr, m], |[e, q, m]| e <= q.min(m))
        }
        (None, Some(v), Some(p)) => merge::all([es, qr, v, p], |[e, q, v, p]| e <= q.min(v).min(p)),
        (Some(d), None, None) => merge::all([es, qr, d], |[e, q, d]| e <= q.max(d)),
        (Some(d), Some(m), None) | (Some(d), None, Some(m)) => {
            merge::all([es, qr, d, m], |[e, q, d, m]| e <= q.max(d).min(m))
        }
        (Some(d), Some(v), Some(p)) => merge::all([es, qr, d, v, p], |[e, q, d, v, p]| {
            e <= q.max(d).min(v).min(p)
        }),
    }
}

/// Whether `label` maps every handle to `level`: `{⋆}` is the identity of
/// `⊔`, `{3}` that of `⊓`.
#[inline]
fn is_uniform_at(label: &Label, level: Level) -> bool {
    label.levels() == LevelSet::of(level)
}

/// Figure 4 requirement (2): if `D_S(h) < 3` then `P_S(h) = ⋆`.
///
/// Granting privilege through a decontaminate-send label requires the sender
/// to control every compartment the label lowers.
pub fn check_decont_send_privilege(ds: &Label, ps: &Label) -> bool {
    if ds.default_level() < Level::L3 {
        // `D_S` lowers the infinitely many handles at its default.
        return merge::all([ds, ps], |[d, p]| d >= Level::L3 || p == Level::Star);
    }
    // Entries differ from the default, so every explicit one is below 3:
    // only those handles of `P_S` matter, however large `P_S` is.
    ds.iter().all(|(h, _)| ps.get(h) == Level::Star)
}

/// Figure 4 requirement (3): if `D_R(h) > ⋆` then `P_S(h) = ⋆`.
///
/// Raising a receiver's receive label makes the system more permissive and
/// requires control of the compartments involved.
pub fn check_decont_recv_privilege(dr: &Label, ps: &Label) -> bool {
    if dr.default_level() > Level::Star {
        return merge::all([dr, ps], |[d, p]| d == Level::Star || p == Level::Star);
    }
    // As above: with a `⋆` default every explicit entry is above `⋆`.
    dr.iter().all(|(h, _)| ps.get(h) == Level::Star)
}

/// Figure 4 requirement (4): `D_R ⊑ p_R`.
///
/// The port label bounds how much a receive label may be decontaminated;
/// this is how long-running servers opt out of unwanted taint (§5.5).
pub fn check_decont_within_port(dr: &Label, pr: &Label) -> bool {
    dr.leq(pr)
}

/// Figure 4 send effect on the receiver's send label:
/// `Q_S ← (Q_S ⊓ D_S) ⊔ (E_S ⊓ Q_S⋆)`.
///
/// The `E_S ⊓ Q_S⋆` term gives `⋆` levels in `Q_S` precedence over
/// contamination from `E_S` (§5.3): a receiver that controls a compartment
/// cannot be contaminated with respect to it.
///
/// Borrowed exactly when the effect leaves `Q_S` as it is. A `D_S` of
/// `{3}` is dropped first: the pass is `Q_S ⊔ (E_S ⊓ Q_S⋆)` over two
/// operands.
pub fn apply_receive_contamination<'a>(qs: &'a Label, ds: &Label, es: &Label) -> Cow<'a, Label> {
    let result = if is_uniform_at(ds, Level::L3) {
        merge::build([qs, es], 0, |[q, e]| q.max(e.min(q.star_only())))
    } else {
        merge::build([qs, ds, es], 0, |[q, d, e]| {
            q.min(d).max(e.min(q.star_only()))
        })
    };
    match result {
        Cow::Borrowed(kept) if std::ptr::eq(kept, qs) => Cow::Borrowed(qs),
        // A `D_S` with a privileged default gives the result another
        // default, so it was built from another operand.
        other => Cow::Owned(other.into_owned()),
    }
}

/// Figure 4 send effect on the receiver's receive label: `Q_R ← Q_R ⊔ D_R`.
pub fn apply_receive_decontamination<'a>(qr: &'a Label, dr: &'a Label) -> Cow<'a, Label> {
    qr.join(dr)
}

/// The sender's effective send label `E_S = P_S ⊔ C_S` (§5.2).
pub fn effective_send<'a>(ps: &'a Label, cs: &'a Label) -> Cow<'a, Label> {
    ps.join(cs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Handle;

    fn h(raw: u64) -> Handle {
        Handle::from_raw(raw)
    }

    /// Reference (composed) form of `check_delivery` built from the lattice
    /// operations directly.
    fn check_delivery_composed(es: &Label, qr: &Label, dr: &Label, v: &Label, pr: &Label) -> bool {
        es.leq(&qr.lub(dr).glb(v).glb(pr))
    }

    #[test]
    fn delivery_default_case() {
        // Default send {1} ⊑ default receive {2} with no-op optional labels.
        let es = Label::default_send();
        let qr = Label::default_recv();
        let dr = Label::bottom();
        let v = Label::top();
        let pr = Label::top();
        assert!(check_delivery(&es, &qr, &dr, &v, &pr));
        assert!(check_delivery_composed(&es, &qr, &dr, &v, &pr));
    }

    #[test]
    fn delivery_blocked_by_taint() {
        let ut = h(10);
        let es = Label::from_pairs(Level::L1, &[(ut, Level::L3)]);
        let qr = Label::default_recv();
        let dr = Label::bottom();
        let v = Label::top();
        let pr = Label::top();
        assert!(!check_delivery(&es, &qr, &dr, &v, &pr));
        // Raising the receiver's label lets it through.
        let qr2 = Label::from_pairs(Level::L2, &[(ut, Level::L3)]);
        assert!(check_delivery(&es, &qr2, &dr, &v, &pr));
        // So does a decontaminate-receive label.
        let dr2 = Label::from_pairs(Level::Star, &[(ut, Level::L3)]);
        assert!(check_delivery(&es, &qr, &dr2, &v, &pr));
    }

    #[test]
    fn delivery_blocked_by_port_label() {
        // §5.5: a fresh port gets p_R(p) ← 0, and since all other processes
        // have P_S(p) ≥ 1 (the default send level), no one can send to p
        // until the creator explicitly grants access.
        let p = h(77);
        let es = Label::default_send();
        let qr = Label::default_recv();
        let dr = Label::bottom();
        let v = Label::top();
        let pr = Label::from_pairs(Level::L2, &[(p, Level::L0)]);
        assert!(!check_delivery(&es, &qr, &dr, &v, &pr));
        // A sender that was granted p ⋆ (or created the port) passes.
        let es_star = Label::from_pairs(Level::L1, &[(p, Level::Star)]);
        assert!(check_delivery(&es_star, &qr, &dr, &v, &pr));
        // Resetting the port label to {3} opens the port to everyone (§5.5).
        assert!(check_delivery(&es, &qr, &dr, &v, &Label::top()));
    }

    #[test]
    fn verification_label_restricts() {
        // §5.4: V temporarily lowers the receiver's effective receive label.
        let ug = h(5);
        let es = Label::default_send(); // sender does not speak for u
        let qr = Label::default_recv();
        let dr = Label::bottom();
        let pr = Label::top();
        let v = Label::from_pairs(Level::L3, &[(ug, Level::L0)]);
        // E_S(ug) = 1 > V(ug) = 0, so the send fails: the sender cannot
        // prove it speaks for u.
        assert!(!check_delivery(&es, &qr, &dr, &v, &pr));
        let es_speaks = Label::from_pairs(Level::L1, &[(ug, Level::L0)]);
        assert!(check_delivery(&es_speaks, &qr, &dr, &v, &pr));
    }

    #[test]
    fn grant_privilege_checks() {
        let p = h(9);
        let ps_with = Label::from_pairs(Level::L1, &[(p, Level::Star)]);
        let ps_without = Label::default_send();
        let ds = Label::from_pairs(Level::L3, &[(p, Level::Star)]);
        assert!(check_decont_send_privilege(&ds, &ps_with));
        assert!(!check_decont_send_privilege(&ds, &ps_without));
        // A privileged *default* needs an all-star sender.
        let ds_all = Label::new(Level::L0);
        assert!(!check_decont_send_privilege(&ds_all, &ps_with));
        assert!(check_decont_send_privilege(&ds_all, &Label::bottom()));
        // D_S = {3} is a no-op and needs no privilege.
        assert!(check_decont_send_privilege(&Label::top(), &ps_without));
    }

    #[test]
    fn decont_recv_privilege_checks() {
        let t = h(3);
        let ps_with = Label::from_pairs(Level::L1, &[(t, Level::Star)]);
        let ps_without = Label::default_send();
        let dr = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
        assert!(check_decont_recv_privilege(&dr, &ps_with));
        assert!(!check_decont_recv_privilege(&dr, &ps_without));
        // D_R = {⋆} is a no-op and needs no privilege.
        assert!(check_decont_recv_privilege(&Label::bottom(), &ps_without));
        // A privileged default needs an all-star sender.
        assert!(!check_decont_recv_privilege(
            &Label::new(Level::L2),
            &ps_with
        ));
        assert!(check_decont_recv_privilege(
            &Label::new(Level::L2),
            &Label::bottom()
        ));
    }

    #[test]
    fn contamination_preserves_stars() {
        // §5.3: even if P receives a message from Q with Q_S(h) = 3, P_S(h)
        // remains ⋆.
        let t = h(8);
        let qs = Label::from_pairs(Level::L1, &[(t, Level::Star)]);
        let es = Label::from_pairs(Level::L1, &[(t, Level::L3)]);
        let out = apply_receive_contamination(&qs, &Label::top(), &es);
        assert_eq!(out.get(t), Level::Star);
    }

    #[test]
    fn contamination_raises_plain_receiver() {
        let t = h(8);
        let qs = Label::default_send();
        let es = Label::from_pairs(Level::L1, &[(t, Level::L3)]);
        let out = apply_receive_contamination(&qs, &Label::top(), &es);
        assert_eq!(out.get(t), Level::L3);
        assert_eq!(out.default_level(), Level::L1);
    }

    #[test]
    fn grant_lowers_receiver_send() {
        // Granting p ⋆ via D_S = {p ⋆, 3} (§5.5 capabilities).
        let p = h(4);
        let qs = Label::default_send();
        let ds = Label::from_pairs(Level::L3, &[(p, Level::Star)]);
        let out = apply_receive_contamination(&qs, &ds, &Label::bottom());
        assert_eq!(out.get(p), Level::Star);
        assert_eq!(out.default_level(), Level::L1);
    }

    #[test]
    fn grant_and_contaminate_together() {
        // The §5.5 idiom our web server uses: grant uG ⋆ and contaminate
        // with uT 3 in the same message. The granting sender necessarily
        // holds uG at ⋆ (Figure 4 requirement 2), so its effective send
        // label carries uG ⋆ — which is what lets the grant survive the
        // `(E_S ⊓ Q_S⋆)` contamination term.
        let ug = h(1);
        let ut = h(2);
        let qs = Label::default_send();
        let ds = Label::from_pairs(Level::L3, &[(ug, Level::Star)]);
        let es = Label::from_pairs(Level::L1, &[(ut, Level::L3), (ug, Level::Star)]);
        let out = apply_receive_contamination(&qs, &ds, &es);
        assert_eq!(out.get(ug), Level::Star);
        assert_eq!(out.get(ut), Level::L3);
        assert_eq!(out.default_level(), Level::L1);
    }

    #[test]
    fn effective_send_combines() {
        let t = h(2);
        let ps = Label::default_send();
        let cs = Label::from_pairs(Level::Star, &[(t, Level::L3)]);
        let es = effective_send(&ps, &cs);
        assert_eq!(es.get(t), Level::L3);
        assert_eq!(es.default_level(), Level::L1);
    }

    #[test]
    fn op_work_counts_entries() {
        let mut a = Label::default_send();
        let mut b = Label::default_recv();
        for i in 0..10 {
            a.set(h(i), Level::L3);
        }
        for i in 0..5 {
            b.set(h(i + 100), Level::L3);
        }
        assert_eq!(op_work(&[&a, &b]), 15);
    }
}
