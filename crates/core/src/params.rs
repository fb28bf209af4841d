//! Task parameters for `k`-set consensus.

use std::fmt;

use synchrony::{ModelError, SystemParams};

/// The variant of the agreement property being solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskVariant {
    /// Only the values decided by *correct* processes are counted towards the
    /// `k`-Agreement bound (§2.3).
    Nonuniform,
    /// All decided values are counted, including those decided by processes
    /// that later crash (Uniform `k`-Agreement).
    Uniform,
}

impl fmt::Display for TaskVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskVariant::Nonuniform => f.write_str("nonuniform"),
            TaskVariant::Uniform => f.write_str("uniform"),
        }
    }
}

/// Parameters of a `k`-set consensus task: the system parameters `(n, t)`,
/// the agreement degree `k`, and the largest permitted initial value `d`
/// (Footnote 4 of the paper allows any `d ≥ k`; the default is `d = k`).
///
/// ```
/// use set_consensus::TaskParams;
/// use synchrony::SystemParams;
///
/// let params = TaskParams::new(SystemParams::new(10, 6)?, 3)?;
/// assert_eq!(params.k(), 3);
/// assert_eq!(params.max_value(), 3);
/// assert_eq!(params.worst_case_decision_time().value(), 3); // ⌊t/k⌋ + 1 = 3
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskParams {
    system: SystemParams,
    k: usize,
    max_value: u64,
}

impl TaskParams {
    /// Creates task parameters with the default value domain `{0, …, k}`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k` is zero.
    pub fn new(system: SystemParams, k: usize) -> Result<Self, ModelError> {
        Self::with_max_value(system, k, k as u64)
    }

    /// Creates task parameters with the value domain `{0, …, max_value}`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k` is zero or `max_value < k`.
    pub fn with_max_value(
        system: SystemParams,
        k: usize,
        max_value: u64,
    ) -> Result<Self, ModelError> {
        if k == 0 {
            return Err(ModelError::InvalidTaskParameter {
                reason: "the agreement degree k must be at least 1".to_owned(),
            });
        }
        if max_value < k as u64 {
            return Err(ModelError::InvalidTaskParameter {
                reason: format!("the value domain must contain k = {k}, got max {max_value}"),
            });
        }
        Ok(TaskParams { system, k, max_value })
    }

    /// Returns the underlying system parameters.
    pub const fn system(&self) -> SystemParams {
        self.system
    }

    /// Returns the number of processes.
    pub const fn n(&self) -> usize {
        self.system.n()
    }

    /// Returns the failure bound.
    pub const fn t(&self) -> usize {
        self.system.t()
    }

    /// Returns the agreement degree `k`.
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Returns the largest permitted initial value.
    pub const fn max_value(&self) -> u64 {
        self.max_value
    }

    /// Returns the worst-case decision bound `⌊t/k⌋ + 1`, which is both the
    /// lower bound for the problem and the latest time at which any protocol
    /// in this crate decides.
    pub fn worst_case_decision_time(&self) -> synchrony::Time {
        synchrony::Time::new((self.system.t() / self.k) as u32 + 1)
    }

    /// Returns the nonuniform early-deciding bound `⌊f/k⌋ + 1` for a run with
    /// `f` failures (Proposition 1).
    pub fn nonuniform_early_bound(&self, f: usize) -> synchrony::Time {
        synchrony::Time::new((f / self.k) as u32 + 1)
    }

    /// Returns the uniform early-deciding bound
    /// `min{⌊t/k⌋ + 1, ⌊f/k⌋ + 2}` for a run with `f` failures (Theorem 3).
    pub fn uniform_early_bound(&self, f: usize) -> synchrony::Time {
        let by_t = self.system.t() / self.k + 1;
        let by_f = f / self.k + 2;
        synchrony::Time::new(by_t.min(by_f) as u32)
    }

    /// Returns a horizon long enough for every protocol in this crate to have
    /// decided: one round past the worst-case bound.
    pub fn horizon(&self) -> synchrony::Time {
        self.worst_case_decision_time() + 1
    }
}

impl fmt::Display for TaskParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, k={}, values 0..={}", self.system, self.k, self.max_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(n: usize, t: usize) -> SystemParams {
        SystemParams::new(n, t).unwrap()
    }

    #[test]
    fn default_value_domain_is_zero_to_k() {
        let p = TaskParams::new(system(5, 3), 2).unwrap();
        assert_eq!(p.max_value(), 2);
        assert_eq!(p.k(), 2);
        assert_eq!(p.n(), 5);
        assert_eq!(p.t(), 3);
    }

    #[test]
    fn k_zero_is_rejected() {
        assert!(TaskParams::new(system(5, 3), 0).is_err());
    }

    #[test]
    fn value_domain_must_contain_k() {
        assert!(TaskParams::with_max_value(system(5, 3), 2, 1).is_err());
        assert!(TaskParams::with_max_value(system(5, 3), 2, 6).is_ok());
    }

    #[test]
    fn decision_bounds_match_the_paper() {
        let p = TaskParams::new(system(13, 9), 3).unwrap();
        assert_eq!(p.worst_case_decision_time().value(), 4); // ⌊9/3⌋ + 1
        assert_eq!(p.nonuniform_early_bound(5).value(), 2); // ⌊5/3⌋ + 1
        assert_eq!(p.uniform_early_bound(5).value(), 3); // min{4, ⌊5/3⌋+2}
        assert_eq!(p.uniform_early_bound(9).value(), 4); // capped by ⌊t/k⌋+1
        assert!(p.horizon() > p.worst_case_decision_time());
    }

    #[test]
    fn variant_display() {
        assert_eq!(TaskVariant::Nonuniform.to_string(), "nonuniform");
        assert_eq!(TaskVariant::Uniform.to_string(), "uniform");
    }
}
