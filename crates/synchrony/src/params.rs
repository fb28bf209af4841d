//! Static system parameters: number of processes and failure bound.

use std::fmt;

use crate::{ModelError, ProcessId};

/// Static parameters of the synchronous system: the number of processes `n`
/// and the a-priori bound `t ≤ n − 1` on the number of crash failures.
///
/// Protocols have access to both `n` and `t` (paper, §2.1); the per-run number
/// of failures `f` is a property of the adversary, not of the parameters.
///
/// ```
/// use synchrony::SystemParams;
///
/// let params = SystemParams::new(7, 3)?;
/// assert_eq!(params.n(), 7);
/// assert_eq!(params.t(), 3);
/// assert_eq!(params.processes().count(), 7);
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemParams {
    n: usize,
    t: usize,
}

impl SystemParams {
    /// Creates system parameters for `n` processes and at most `t` crashes.
    ///
    /// # Errors
    ///
    /// Returns an error if `n < 2` or `t > n − 1`.
    pub fn new(n: usize, t: usize) -> Result<Self, ModelError> {
        if n < 2 {
            return Err(ModelError::TooFewProcesses { n });
        }
        if t + 1 > n {
            return Err(ModelError::FailureBoundTooLarge { n, t });
        }
        Ok(SystemParams { n, t })
    }

    /// Returns the number of processes in the system.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Returns the bound on the number of crash failures.
    pub const fn t(&self) -> usize {
        self.t
    }

    /// Returns `true` if `process` is a valid identifier for this system.
    pub fn contains(&self, process: impl Into<ProcessId>) -> bool {
        process.into().index() < self.n
    }

    /// Iterates over all process identifiers of the system.
    pub fn processes(&self) -> impl DoubleEndedIterator<Item = ProcessId> + ExactSizeIterator {
        (0..self.n).map(ProcessId::new)
    }

    /// Validates that `process` is a valid identifier for this system.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ProcessOutOfRange`] otherwise.
    pub fn check_process(&self, process: ProcessId) -> Result<(), ModelError> {
        if process.index() < self.n {
            Ok(())
        } else {
            Err(ModelError::ProcessOutOfRange { process: process.index(), n: self.n })
        }
    }
}

impl fmt::Display for SystemParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={}, t={}", self.n, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_parameters() {
        let p = SystemParams::new(5, 4).unwrap();
        assert_eq!(p.n(), 5);
        assert_eq!(p.t(), 4);
        assert!(p.contains(4));
        assert!(!p.contains(5));
    }

    #[test]
    fn rejects_tiny_systems() {
        assert_eq!(SystemParams::new(1, 0), Err(ModelError::TooFewProcesses { n: 1 }));
        assert_eq!(SystemParams::new(0, 0), Err(ModelError::TooFewProcesses { n: 0 }));
    }

    #[test]
    fn rejects_excessive_failure_bound() {
        assert_eq!(SystemParams::new(4, 4), Err(ModelError::FailureBoundTooLarge { n: 4, t: 4 }));
        assert!(SystemParams::new(4, 3).is_ok());
    }

    #[test]
    fn zero_failures_is_allowed() {
        assert!(SystemParams::new(2, 0).is_ok());
    }

    #[test]
    fn check_process_matches_contains() {
        let p = SystemParams::new(3, 1).unwrap();
        assert!(p.check_process(ProcessId::new(2)).is_ok());
        assert!(p.check_process(ProcessId::new(3)).is_err());
    }

    #[test]
    fn processes_iterates_all_ids() {
        let p = SystemParams::new(4, 1).unwrap();
        let ids: Vec<usize> = p.processes().map(|p| p.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
