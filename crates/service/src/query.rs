//! The service side of the `sweep::experiments` query descriptors: the
//! wire-side fact of each (`ServedQuery`: its [`QueryResult`] variant) and
//! [`fold_local`], the in-process fold of any [`QueryKind`] behind the
//! one-shot `sweep <query>` path.

use adversary::PatternModel;
use sweep::experiments::{self, fold_cases, Fig4Query, Query, Thm1Query, Thm3Query};
use sweep::{Reducer, SweepConfig, SweepStats};
use synchrony::ModelError;

use crate::wire::{FromWire, QueryKind, QueryResult, ToWire};

/// The wire-side fact of a sharded query descriptor.
pub(crate) trait ServedQuery:
    Query<Reducer: Reducer<Acc: Clone + Send + ToWire + FromWire>>
{
    /// Wraps the query's rows into its result variant.
    fn result(self, rows: Vec<Self::Row>) -> QueryResult;
}

impl ServedQuery for Thm1Query {
    fn result(self, rows: Vec<experiments::Thm1Case>) -> QueryResult {
        match self.model {
            PatternModel::Crash => QueryResult::Thm1(rows),
            PatternModel::Omission => QueryResult::Omission(rows),
        }
    }
}

impl ServedQuery for Thm3Query {
    fn result(self, rows: Vec<experiments::Thm3Row>) -> QueryResult {
        QueryResult::Thm3(rows)
    }
}

impl ServedQuery for Fig4Query {
    fn result(self, rows: Vec<experiments::Fig4Row>) -> QueryResult {
        QueryResult::Fig4(rows)
    }
}

/// Folds the built-in cases of `kind` in process — the one-shot
/// `sweep <query>` path — and returns the result a daemon job of the same
/// query streams, plus the execution statistics.
///
/// # Errors
///
/// Propagates source-construction and executor errors.
pub fn fold_local(
    kind: QueryKind,
    config: &SweepConfig,
) -> Result<(QueryResult, SweepStats), ModelError> {
    fn fold<Q: ServedQuery>(
        query: Q,
        config: &SweepConfig,
    ) -> Result<(QueryResult, SweepStats), ModelError> {
        fold_cases(query, config).map(|(rows, stats)| (query.result(rows), stats))
    }
    match kind {
        QueryKind::Thm1 => fold(Thm1Query::CRASH, config),
        QueryKind::Omission => fold(Thm1Query::OMISSION, config),
        QueryKind::Thm3 => fold(Thm3Query, config),
        QueryKind::Fig4 => fold(Fig4Query, config),
        QueryKind::Prop2 => experiments::prop2_with_stats(config)
            .map(|(report, stats)| (QueryResult::Prop2(report), stats)),
    }
}
