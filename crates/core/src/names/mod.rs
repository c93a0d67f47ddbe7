//! Vendor and product name consolidation (§4.2).
//!
//! The paper's pipeline: heuristics flag *candidate* name pairs that are
//! likely the same entity ([`vendor`], [`product`]); a verification step —
//! manual in the paper, pluggable here ([`verify`]) — confirms matching
//! pairs; confirmed pairs are grouped and each group remapped to the name
//! with the most associated CVEs ([`mapping`]).
//!
//! Both candidate sweeps run on the blocked matching engine: names are
//! interned into dense-id [`table::NameTable`]s, blocking passes
//! materialise candidate groups as sorted id vectors, and pair proposal
//! plus signal annotation fan out over the `minipar` pool while staying
//! bit-identical to the pre-blocking serial sweeps (kept verbatim as the
//! test oracle in the workspace's integration tests,
//! `tests/tests/names_oracle`, and compared in `tests/tests/determinism.rs`).
//! Each sweep exists once, with a carry-over cache the incremental
//! pipeline keeps across deltas ([`VendorSweepCache`],
//! [`ProductSweepCache`]); [`find_vendor_candidates`] and
//! [`find_product_candidates`] run it over a fresh cache. The string
//! helpers both sweeps call (banded edit distance, longest common
//! substring, prefix test, name components and abbreviations) are in
//! [`text`].

pub mod mapping;
pub mod product;
pub mod table;
pub mod text;
pub mod vendor;
pub mod verify;

pub use mapping::{ApplyStats, NameMapping};
pub use product::{
    confirm_product, find_product_candidates, find_product_candidates_cached, ProductCandidate,
    ProductHeuristic, ProductSweepCache,
};
pub use table::NameTable;
pub use vendor::{
    find_vendor_candidates, find_vendor_candidates_cached, PatternBreakdown, VendorCandidate,
    VendorSweepCache,
};
pub use verify::{AcceptanceRateVerifier, OracleVerifier, Verifier};
