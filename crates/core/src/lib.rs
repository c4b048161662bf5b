//! # quonto
//!
//! A from-scratch Rust implementation of the paper's primary contribution:
//! **graph-based classification of DL-Lite_R / OWL 2 QL ontologies** in
//! the style of the QuOnto reasoner at the core of the Mastro system.
//!
//! The pipeline (Section 5 of the paper):
//!
//! 1. [`graph::TboxGraph::build`] encodes the positive inclusions of a
//!    TBox into a digraph (Definition 1);
//! 2. a [`closure::ClosureEngine`] computes the transitive closure — the
//!    reachability relation *is* `Φ_T` (Theorem 1), materialized on demand
//!    by [`phi::compute_phi`];
//! 3. [`unsat::compute_unsat`] derives the unsatisfiable predicates
//!    (`Ω_T`) from the negative inclusions, to fixpoint;
//! 4. [`classify::Classification`] packages both into the classification
//!    query API used by the Figure 1 benchmark and by the OBDA system.
//!
//! On top of classification the crate implements the paper's two follow-on
//! directions: the finite **deductive closure**
//! ([`closure_full::deductive_closure`]) and a **logical implication**
//! service ([`implication::Implication`]) that answers `T ⊨ α` straight
//! from the graph artifacts.
//!
//! ```
//! use obda_dllite::parse_tbox;
//! use quonto::Classification;
//!
//! let tbox = parse_tbox(
//!     "concept County State Region\n\
//!      role isPartOf\n\
//!      County [= exists isPartOf . State\n\
//!      State [= Region",
//! )
//! .unwrap();
//! let cls = Classification::classify(&tbox);
//! let county = tbox.sig.find_concept("County").unwrap();
//! let is_part_of = tbox.sig.find_role("isPartOf").unwrap();
//! // County ⊑ ∃isPartOf follows from the qualified existential.
//! assert!(cls.subsumed_concept(
//!     county.into(),
//!     obda_dllite::BasicConcept::exists(is_part_of),
//! ));
//! ```

pub mod classify;
pub mod closure;
pub mod closure_full;
pub mod closure_par;
pub mod env;
pub mod graph;
pub mod implication;
pub mod phi;
pub mod sync;
pub mod taxonomy;
pub mod unsat;

pub use classify::Classification;
pub use closure::{
    all_engines, recommended, recommended_with_threads, BfsEngine, Closure, ClosureEngine,
    DfsEngine, SccEngine,
};
pub use closure_full::{deductive_closure, ClosureOptions};
pub use closure_par::{default_threads, ChunkedBitsetEngine};
pub use graph::{NodeId, NodeKind, NodeSort, TboxGraph};
pub use implication::Implication;
pub use phi::compute_phi;
pub use taxonomy::Taxonomy;
pub use unsat::{compute_unsat, UnsatSet};
