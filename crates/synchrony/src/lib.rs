//! Synchronous round-based message-passing model with crash failures.
//!
//! This crate is the executable substrate underlying the reproduction of
//! *Unbeatable Set Consensus via Topological and Combinatorial Reasoning*
//! (Castañeda, Gonczarowski, Moses — PODC 2016).  It implements the
//! computation and communication model of §2.1 of the paper:
//!
//! * a system of `n ≥ 2` processes connected by a complete network of
//!   reliable links, sharing a global round structure (round `m + 1` takes
//!   place between time `m` and time `m + 1`);
//! * benign *crash* failures: a faulty process behaves correctly up to its
//!   crashing round, may deliver to an arbitrary subset of processes during
//!   that round, and is silent afterwards; at most `t ≤ n − 1` processes
//!   fail in any execution;
//! * *adversaries* `α = (v⃗, F)` — an input vector plus a failure pattern —
//!   which, together with a deterministic protocol, uniquely determine a run;
//! * the *full-information protocol* (fip) communication structure: the
//!   communication graph `G_α` and the per-node views `G_α(i, m)`;
//! * the communication-efficient implementation of Appendix E, in which a
//!   process sends each other process `O(n log n)` bits over a whole run.
//!
//! The crate is protocol-agnostic: decision rules live in the
//! `set-consensus` crate and consume the views computed here (via the
//! `knowledge` crate).  Everything in this crate is deterministic — the only
//! sources of nondeterminism in the overall system are the adversary
//! generators in the `adversary` crate.
//!
//! # Quick example
//!
//! ```
//! use synchrony::{Adversary, FailurePattern, InputVector, Run, SystemParams, Time};
//!
//! // Three processes, at most one crash.
//! let params = SystemParams::new(3, 1)?;
//! // Process 0 starts with 0, the others with 1.
//! let inputs = InputVector::from_values([0, 1, 1]);
//! // Process 0 crashes in round 1 and only reaches process 1.
//! let mut failures = FailurePattern::crash_free(3);
//! failures.crash(0, 1, [1])?;
//! let adversary = Adversary::new(inputs, failures)?;
//!
//! let run = Run::generate(params, adversary, Time::new(3))?;
//! // Process 2 has not seen process 0's time-0 node after one round...
//! assert!(!run.seen(2, Time::new(1)).contains_node(0, Time::ZERO));
//! // ...but after two rounds process 1 has relayed it.
//! assert!(run.seen(2, Time::new(2)).contains_node(0, Time::ZERO));
//! # Ok::<(), synchrony::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod error;
pub mod failure;
pub mod hash;
pub mod input;
pub mod node;
pub mod params;
pub mod pid;
pub mod run;
pub mod time;
pub mod value;
pub mod view;
pub mod wire;

pub use adversary::Adversary;
pub use error::ModelError;
pub use failure::{CrashFault, FailurePattern};
pub use hash::WordMap;
pub use input::InputVector;
pub use node::Node;
pub use params::SystemParams;
pub use pid::{PidSet, ProcessId};
pub use run::{Run, RunStructure, SeenLayers, StructureReuse, ValueIndex};
pub use time::{Round, Time};
pub use value::{Value, ValueSet};
pub use view::{View, ViewKey};
pub use wire::{WireMessage, WireReport, WireRun, WireStats};

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use crate::{
        Adversary, CrashFault, FailurePattern, InputVector, ModelError, Node, PidSet, ProcessId,
        Round, Run, SystemParams, Time, Value, ValueSet, View,
    };
}
