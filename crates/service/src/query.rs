//! The service side of the `sweep::experiments` query descriptors: the
//! wire-side facts of each (`ServedQuery`: its [`QueryResult`] variant and
//! typed shard cache) and [`fold_local`], the in-process fold of any
//! [`QueryKind`] behind the one-shot `sweep <query>` path.

use adversary::PatternModel;
use sweep::experiments::{self, fold_cases, Fig4Query, Query, QueryAcc, Thm1Query, Thm3Query};
use sweep::{Reducer, SweepConfig, SweepStats};
use synchrony::ModelError;

use crate::cache::ShardCache;
use crate::server::DaemonCaches;
use crate::wire::{FromWire, QueryKind, QueryResult, ToWire};

/// The wire-side facts of a sharded query descriptor.
pub(crate) trait ServedQuery:
    Query<Reducer: Reducer<Acc: Clone + Send + ToWire + FromWire>>
{
    /// Wraps the query's rows into its result variant.
    fn result(self, rows: Vec<Self::Row>) -> QueryResult;

    /// The daemon's typed shard-accumulator cache of the query.
    fn cache(self, caches: &DaemonCaches) -> &ShardCache<QueryAcc<Self>>;
}

impl ServedQuery for Thm1Query {
    fn result(self, rows: Vec<experiments::Thm1Case>) -> QueryResult {
        match self.model {
            PatternModel::Crash => QueryResult::Thm1(rows),
            PatternModel::Omission => QueryResult::Omission(rows),
        }
    }

    fn cache(self, caches: &DaemonCaches) -> &ShardCache<experiments::Thm1Outcome> {
        match self.model {
            PatternModel::Crash => &caches.thm1,
            PatternModel::Omission => &caches.omission,
        }
    }
}

impl ServedQuery for Thm3Query {
    fn result(self, rows: Vec<experiments::Thm3Row>) -> QueryResult {
        QueryResult::Thm3(rows)
    }

    fn cache(self, caches: &DaemonCaches) -> &ShardCache<experiments::Thm3Acc> {
        &caches.thm3
    }
}

impl ServedQuery for Fig4Query {
    fn result(self, rows: Vec<experiments::Fig4Row>) -> QueryResult {
        QueryResult::Fig4(rows)
    }

    fn cache(self, caches: &DaemonCaches) -> &ShardCache<experiments::Fig4Acc> {
        &caches.fig4
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
