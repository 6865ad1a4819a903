//! Optimality theory for grid declustering.
//!
//! The paper's theoretical contribution is an impossibility result: **no
//! declustering method is strictly optimal for range queries when the
//! number of disks exceeds 5.** This crate reproduces that result
//! computationally and collects the partial-match optimality conditions
//! the paper tabulates:
//!
//! * [`strict`] — a verifier that checks an allocation against *every*
//!   range query on its grid (`RT(Q) = ceil(|Q|/M)` for all `Q`), plus the
//!   known strictly optimal lattice allocations for `M ∈ {1, 2, 3, 5}`.
//! * [`search`] — an exhaustive constraint-propagation search over all
//!   allocations of a 2-D window. If the search exhausts without finding a
//!   strictly optimal allocation of an `R × C` window, none exists for any
//!   grid containing that window — which is exactly how
//!   [`impossibility`] demonstrates the paper's theorem for `M = 6, 7, 8`
//!   (and, beyond the paper, for `M = 4`).
//! * [`partial_match`] — the paper's Table 1: per-method conditions under
//!   which partial-match queries are provably optimal, as executable
//!   predicates with empirical cross-checks.
//!
//! # Example
//!
//! ```
//! use decluster_grid::GridSpace;
//! use decluster_theory::{search::{SearchOutcome, StrictSearch}, strict};
//!
//! // M = 5 admits a strictly optimal allocation (the (i + 2j) mod 5 lattice)…
//! let space = GridSpace::new_2d(10, 10).unwrap();
//! let alloc = strict::known_strict_allocation(&space, 5).unwrap();
//! assert!(strict::verify_strictly_optimal(&alloc).is_ok());
//!
//! // …while M = 6 provably does not (the paper's theorem): exhausting the
//! // search on a 7×7 window proves it for every grid at least that large.
//! let outcome = StrictSearch::new(7, 7, 6).with_node_budget(2_000_000).run();
//! assert_eq!(outcome, SearchOutcome::Unsatisfiable);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod closed_form;
pub mod impossibility;
pub mod partial_match;
pub mod search;
pub mod strict;
