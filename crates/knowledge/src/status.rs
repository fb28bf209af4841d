//! Classification of nodes relative to an observer: seen, guaranteed crashed,
//! or hidden (§3 of the paper).

use std::fmt;

/// The three kinds of information an observer `⟨i, m⟩` can have about another
/// node `⟨j, ℓ⟩` in a run of the full-information protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// `⟨j, ℓ⟩` is *seen by* `⟨i, m⟩`: a message chain carried `j`'s time-`ℓ`
    /// state to `i` by time `m`.
    Seen,
    /// `⟨j, ℓ⟩` is *guaranteed crashed* at `⟨i, m⟩`: `i` has proof that `j`
    /// crashed before time `ℓ` (some node it heard from did not hear from `j`
    /// in a round `≤ ℓ`).
    GuaranteedCrashed,
    /// `⟨j, ℓ⟩` is *hidden from* `⟨i, m⟩`: neither seen nor guaranteed
    /// crashed.  As far as `i` knows, `j` may have been active at time `ℓ`
    /// holding information `i` has never heard about.
    Hidden,
}

impl NodeStatus {
    /// Returns `true` for [`NodeStatus::Hidden`].
    pub fn is_hidden(self) -> bool {
        matches!(self, NodeStatus::Hidden)
    }

    /// Returns `true` for [`NodeStatus::Seen`].
    pub fn is_seen(self) -> bool {
        matches!(self, NodeStatus::Seen)
    }

    /// Returns `true` for [`NodeStatus::GuaranteedCrashed`].
    pub fn is_guaranteed_crashed(self) -> bool {
        matches!(self, NodeStatus::GuaranteedCrashed)
    }
}

impl fmt::Display for NodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeStatus::Seen => "seen",
            NodeStatus::GuaranteedCrashed => "guaranteed crashed",
            NodeStatus::Hidden => "hidden",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_match_variants() {
        assert!(NodeStatus::Hidden.is_hidden());
        assert!(!NodeStatus::Hidden.is_seen());
        assert!(NodeStatus::Seen.is_seen());
        assert!(NodeStatus::GuaranteedCrashed.is_guaranteed_crashed());
        assert!(!NodeStatus::Seen.is_guaranteed_crashed());
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(NodeStatus::Seen.to_string(), "seen");
        assert_eq!(NodeStatus::GuaranteedCrashed.to_string(), "guaranteed crashed");
        assert_eq!(NodeStatus::Hidden.to_string(), "hidden");
    }
}
