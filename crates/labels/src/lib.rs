//! # asbestos-labels
//!
//! The Asbestos label algebra from *Labels and Event Processes in the
//! Asbestos Operating System* (Efstathopoulos et al., SOSP 2005), §5.
//!
//! Labels are total functions from 61-bit [`Handle`]s to [`Level`]s drawn
//! from the ordered set `[⋆, 0, 1, 2, 3]`. Each process carries a *send
//! label* (its current contamination) and a *receive label* (the maximum
//! contamination it accepts); message delivery requires
//! `E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R` (paper Figure 4), evaluated by
//! [`ops::check_delivery`].
//!
//! The crate provides:
//!
//! * [`Level`] and [`Handle`] — the primitive vocabulary, and
//!   [`HandleMap`], the hash table keyed by handles;
//! * [`Label`] — the chunked, copy-on-write representation of §5.6, with
//!   `⊑`/`⊔`/`⊓`/`L⋆` and min/max fast paths;
//! * [`ops`] — fused, allocation-light forms of every Figure 4 check and
//!   effect, used by the kernel's delivery path;
//! * [`HandleAllocator`] — the encrypted-counter handle generator of §5.1;
//! * [`naive::NaiveLabel`] — a `BTreeMap` oracle for property tests and the
//!   representation ablation.
//!
//! ## Quick example
//!
//! ```
//! use asbestos_labels::{Handle, Label, Level};
//!
//! // User u's taint compartment.
//! let u_taint = Handle::from_raw(0x1001);
//!
//! // A process that has seen u's private data: send label {uT 3, 1}.
//! let tainted = Label::from_pairs(Level::L1, &[(u_taint, Level::L3)]);
//!
//! // A default process receive label {2} refuses that contamination...
//! assert!(!tainted.leq(&Label::default_recv()));
//!
//! // ...but u's terminal, with receive label {uT 3, 2}, accepts it.
//! let terminal = Label::from_pairs(Level::L2, &[(u_taint, Level::L3)]);
//! assert!(tainted.leq(&terminal));
//! ```

#![forbid(unsafe_code)]

pub mod chunk;
pub mod cipher;
pub mod handle;
pub mod label;
pub mod level;
mod merge;
pub mod naive;
pub mod ops;

pub use cipher::{HandleAllocator, HandleCipher};
pub use handle::{Handle, HandleHasher, HandleMap, HANDLE_BITS, HANDLE_SPACE};
pub use label::Label;
pub use level::{Level, LevelSet};
