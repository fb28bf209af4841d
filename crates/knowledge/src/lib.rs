//! Knowledge analysis of synchronous crash-failure runs.
//!
//! The decision rules of the paper's protocols are phrased in terms of what a
//! process *knows* at a node `⟨i, m⟩` of a run:
//!
//! * which nodes are **seen**, **guaranteed crashed** or **hidden** (§3);
//! * whether a **hidden path** exists, and more generally the **hidden
//!   capacity** `HC⟨i, m⟩` (Definition 2);
//! * the set `Vals⟨i, m⟩` of values it knows to exist, the subset
//!   `Lows⟨i, m⟩` of low values, and `Min⟨i, m⟩` (Definition 5);
//! * whether it knows that a value **will persist** (Definition 3), used by
//!   the uniform protocol `u-Pmin[k]`;
//! * the failures it has **directly observed** (missed messages), which is
//!   the quantity the pre-existing early-deciding protocols in the literature
//!   condition on.
//!
//! The central type is [`ViewAnalysis`], computed once per node from a
//! [`synchrony::Run`]; protocol implementations in the `set-consensus` crate
//! consume it and read exactly like the paper's pseudo-code.  An analysis
//! can be refilled in place ([`ViewAnalysis::recompute`],
//! [`ViewAnalysis::refresh_values`]), which is how the `set-consensus` batch
//! executor keeps one per node across a whole sweep.  [`AnalysisCache`]
//! shares analyses *across adversaries* whose views at a node differ only
//! in input values, keyed by the view's `synchrony::ViewKey` — see the
//! [`cache`] module.
//!
//! ```
//! use synchrony::{Adversary, FailurePattern, InputVector, Node, Run, SystemParams, Time};
//! use knowledge::ViewAnalysis;
//!
//! // Fig. 1-style scenario: p0 holds 0 and crashes in round 1 reaching only p1,
//! // p1 crashes in round 2 reaching only p2.
//! let params = SystemParams::new(4, 2)?;
//! let mut failures = FailurePattern::crash_free(4);
//! failures.crash(0, 1, [1])?;
//! failures.crash(1, 2, [2])?;
//! let adversary = Adversary::new(InputVector::from_values([0, 1, 1, 1]), failures)?;
//! let run = Run::generate(params, adversary, Time::new(3))?;
//!
//! let analysis = ViewAnalysis::new(&run, Node::new(3, Time::new(2)))?;
//! assert!(!analysis.vals().contains(0u64), "p3 has not seen the value 0");
//! assert!(analysis.has_hidden_path(), "… and a hidden path keeps it uncertain");
//! # Ok::<(), synchrony::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod cache;
pub mod capacity;
pub mod observation;
pub mod status;

pub use analysis::ViewAnalysis;
pub use cache::{AnalysisCache, CacheStats};
pub use capacity::HiddenCapacity;
pub use observation::DirectObservations;
pub use status::NodeStatus;
