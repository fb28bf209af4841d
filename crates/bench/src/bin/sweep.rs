//! The unified scenario-sweep CLI: one-shot experiments on the sharded
//! engine, plus the client and server sides of the sweep service daemon.
//!
//! ```text
//! # one-shot (in-process) experiments, as before
//! sweep <thm1|omission|thm3|fig4|prop2|all> [--shards N] [--threads N]
//!       [--seed N]
//!
//! # the service layer
//! sweep serve    (--socket PATH | --tcp ADDR) [--workers N]
//!                [--cache-dir PATH] [--cache-budget BYTES]
//!                [--lease-ttl-ms N] [--auth-token TOKEN]
//! sweep worker   --connect ADDR [--auth-token TOKEN]
//!                [--connect-timeout SECS] [--heartbeat-ms N]
//! sweep submit   (--socket PATH | --tcp ADDR) <thm1|omission|thm3|fig4|prop2>
//!                [--scope n,t,k[,maxv[,mcr[,pd]]]] [--shards N] [--seed N]
//!                [--id N] [--no-shard-cache] [--connect-timeout SECS]
//!                [--auth-token TOKEN]
//! sweep cancel   (--socket PATH | --tcp ADDR) --id N [...]
//! sweep stats    (--socket PATH | --tcp ADDR) [--json | --prom] [...]
//! sweep shutdown (--socket PATH | --tcp ADDR) [...]
//! ```
//!
//! Every mode also accepts the global logging flags `--log-level
//! <error|warn|info|debug>` and `--log-json` (JSON-lines records on
//! stderr instead of the human lines); the `SWEEP_LOG` environment
//! variable sets the default level.  `sweep stats` asks a running daemon
//! for its live metrics snapshot and prints it as an aligned table, as
//! JSON (`--json`), or as Prometheus text exposition (`--prom`).
//!
//! One-shot fold results are independent of `--shards` and `--threads`,
//! and `sweep submit` prints byte-identical tables to the one-shot mode
//! for the same query — the daemon streams the same fold, computed on its
//! persistent worker pool, its registered `sweep worker` fleet, and (for
//! repeated queries) replayed from its shard-accumulator cache.
//! Progress/stats stay on stderr; stdout is the diffable result.
//!
//! `--connect ADDR` dials TCP when the address ends in `:PORT` (a `u16`
//! port, as in `127.0.0.1:7000` or `localhost:7000`) and treats anything
//! else as a Unix socket path (`serve.sock`, `./serve.sock`,
//! `/tmp/s.sock`).  `--auth-token` (or the `SWEEP_TOKEN` environment
//! variable) is required by daemons started with a token on TCP
//! endpoints; Unix sockets never need it.

use bench_harness::{report, sweep_config_from_args};
use service::wire::ToWire;
use service::{
    client, ConnectOptions, Endpoint, JobSpec, QueryKind, QueryResult, ScopeSpec, ServeOptions,
    Server, WorkerOptions,
};
use std::time::Duration;
use sweep::SweepConfig;

/// Log target of the CLI's own stderr lines (daemon/worker internals log
/// under their `service::*` targets).
const LOG_TARGET: &str = "sweep::cli";

const USAGE: &str = "usage: sweep <thm1|omission|thm3|fig4|prop2|all> \
                     [--shards N] [--threads N] [--seed N]\n\
       sweep serve    (--socket PATH | --tcp ADDR) [--workers N] [--cache-dir PATH] \
                      [--cache-budget BYTES] [--lease-ttl-ms N] [--auth-token TOKEN]\n\
       sweep worker   (--connect ADDR | --socket PATH | --tcp ADDR) [--auth-token TOKEN] \
                      [--connect-timeout SECS] [--heartbeat-ms N]\n\
       sweep submit   (--socket PATH | --tcp ADDR) <thm1|omission|thm3|fig4|prop2> \
                      [--scope n,t,k[,maxv[,mcr[,pd]]]] \
                      [--shards N] [--seed N] [--id N] \
                      [--no-shard-cache] [--connect-timeout SECS] [--auth-token TOKEN]\n\
       sweep cancel   (--socket PATH | --tcp ADDR) --id N [--connect-timeout SECS] \
                      [--auth-token TOKEN]\n\
       sweep stats    (--socket PATH | --tcp ADDR) [--json | --prom] [--connect-timeout SECS] \
                      [--auth-token TOKEN]\n\
       sweep shutdown (--socket PATH | --tcp ADDR) [--connect-timeout SECS] [--auth-token TOKEN]\n\
       global flags:  [--log-level error|warn|info|debug] [--log-json]  \
                      (SWEEP_LOG sets the default level)";

fn usage_exit(message: &str) -> ! {
    telemetry::log::error(LOG_TARGET, format!("{message}\n{USAGE}"), &[]);
    std::process::exit(2);
}

/// Strips the global logging flags (`--log-level LEVEL`, `--log-json`) out
/// of the raw argument stream — they may appear anywhere — and configures
/// the `telemetry` logger before any subcommand parser runs.
fn apply_log_flags(raw: Vec<String>) -> Vec<String> {
    let mut filtered = Vec::with_capacity(raw.len());
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--log-json" => telemetry::log::set_json(true),
            "--log-level" => {
                let text =
                    args.next().unwrap_or_else(|| usage_exit("missing value for --log-level"));
                let level = telemetry::Level::parse(&text).unwrap_or_else(|| {
                    usage_exit(&format!("invalid --log-level {text:?} (error|warn|info|debug)"))
                });
                telemetry::log::set_level(level);
            }
            _ => filtered.push(arg),
        }
    }
    filtered
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = apply_log_flags(raw).into_iter();
    let Some(command) = args.next() else {
        usage_exit("missing command");
    };
    match command.as_str() {
        "serve" => serve_main(args),
        "worker" => worker_main(args),
        "submit" => submit_main(args),
        "cancel" => cancel_main(args),
        "stats" => stats_main(args),
        "shutdown" => shutdown_main(args),
        _ => experiment_main(&command, args),
    }
}

/// Prints a query result on stdout — its tables, then its claim trailer.
/// The one-shot and the `submit` path both print through here, so they
/// print the same bytes for the same fold.
fn print_result(result: &QueryResult) {
    let (tables, claim) = report::result_tables(result);
    for table in tables {
        println!("{table}");
    }
    println!("{claim}");
}

/// Parses a query name, or exits with a usage error.
fn parse_query(name: &str) -> QueryKind {
    QueryKind::parse(name).unwrap_or_else(|_| usage_exit(&format!("unknown query {name:?}")))
}

// ---------------------------------------------------------------------------
// One-shot experiment mode.
// ---------------------------------------------------------------------------

fn experiment_main(experiment: &str, args: impl Iterator<Item = String>) {
    let names =
        if experiment == "all" { vec!["thm1", "thm3", "fig4", "prop2"] } else { vec![experiment] };
    let queries: Vec<QueryKind> = names.into_iter().map(parse_query).collect();
    let config = match sweep_config_from_args(args) {
        Ok(config) => config,
        Err(message) => usage_exit(&message),
    };

    for query in queries {
        match service::fold_local(query, &config) {
            Ok((result, stats)) => {
                print_result(&result);
                // Stats may vary with parallelism; stderr keeps stdout diffs
                // (the CI determinism smoke test) parallelism-invariant.
                telemetry::log::info(LOG_TARGET, stats.stats_line(), &[]);
            }
            Err(error) => {
                telemetry::log::error(
                    LOG_TARGET,
                    format!("experiment {} failed: {error}", query.name()),
                    &[("experiment", query.name().into()), ("error", error.to_string().into())],
                );
                std::process::exit(1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Service mode.
// ---------------------------------------------------------------------------

/// Pulls `--socket PATH` or `--tcp ADDR` out of a flag stream.
struct EndpointFlag(Option<Endpoint>);

impl EndpointFlag {
    fn accept(&mut self, flag: &str, mut value: impl FnMut() -> String) -> bool {
        match flag {
            "--socket" => {
                self.0 = Some(Endpoint::Unix(value().into()));
                true
            }
            "--tcp" => {
                self.0 = Some(Endpoint::Tcp(value()));
                true
            }
            _ => false,
        }
    }

    fn require(self) -> Endpoint {
        self.0.unwrap_or_else(|| usage_exit("missing --socket PATH or --tcp ADDR"))
    }
}

fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| usage_exit(&format!("missing value for {flag}")))
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse().unwrap_or_else(|_| usage_exit(&format!("invalid {flag} value {text:?}")))
}

/// The `SWEEP_TOKEN` fallback used wherever `--auth-token` is accepted.
fn token_from_env() -> Option<String> {
    std::env::var("SWEEP_TOKEN").ok().filter(|token| !token.is_empty())
}

/// Pulls `--connect-timeout SECS` and `--auth-token TOKEN` out of a flag
/// stream; the token falls back to the `SWEEP_TOKEN` environment
/// variable.
struct ConnectFlags {
    timeout: Duration,
    auth_token: Option<String>,
}

impl ConnectFlags {
    fn new(default_timeout: Duration) -> Self {
        ConnectFlags { timeout: default_timeout, auth_token: None }
    }

    fn accept(&mut self, flag: &str, mut value: impl FnMut() -> String) -> bool {
        match flag {
            "--connect-timeout" => {
                let secs: u64 = parse_number(flag, &value());
                self.timeout = Duration::from_secs(secs);
                true
            }
            "--auth-token" => {
                self.auth_token = Some(value());
                true
            }
            _ => false,
        }
    }

    fn options(self) -> ConnectOptions {
        ConnectOptions {
            timeout: self.timeout,
            auth_token: self.auth_token.or_else(token_from_env),
        }
    }
}

fn serve_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut workers = 0usize;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_budget: Option<u64> = None;
    let mut lease_ttl_ms = 0u64;
    let mut auth_token: Option<String> = None;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--workers" => workers = parse_number(&flag, &value_of(&flag, &mut args)),
            "--cache-dir" => cache_dir = Some(value_of(&flag, &mut args).into()),
            "--cache-budget" => {
                cache_budget = Some(parse_number(&flag, &value_of(&flag, &mut args)))
            }
            "--lease-ttl-ms" => lease_ttl_ms = parse_number(&flag, &value_of(&flag, &mut args)),
            "--auth-token" => auth_token = Some(value_of(&flag, &mut args)),
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let options = ServeOptions {
        endpoint: endpoint.require(),
        workers,
        cache_dir,
        cache_budget,
        lease_ttl_ms,
        auth_token: auth_token.or_else(token_from_env),
        metrics: None,
    };
    if let Err(error) = options.check_bounds() {
        usage_exit(&format!("invalid sweep serve option: {error}"));
    }
    let server = match Server::bind(&options) {
        Ok(server) => server,
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep serve: {error}"), &[]);
            std::process::exit(1);
        }
    };
    if let Err(error) = server.run() {
        telemetry::log::error(LOG_TARGET, format!("sweep serve: {error}"), &[]);
        std::process::exit(1);
    }
}

fn worker_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(10));
    let mut heartbeat_ms: Option<u64> = None;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--connect" => endpoint.0 = Some(connect_endpoint(&value_of(&flag, &mut args))),
            "--heartbeat-ms" => {
                heartbeat_ms = Some(parse_number(&flag, &value_of(&flag, &mut args)))
            }
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let options =
        WorkerOptions { endpoint: endpoint.require(), connect: connect.options(), heartbeat_ms };
    if let Err(error) = service::worker::run(&options) {
        telemetry::log::error(LOG_TARGET, format!("sweep worker: {error}"), &[]);
        std::process::exit(1);
    }
}

/// The endpoint `sweep worker --connect ADDR` dials: TCP when the address
/// ends in `:PORT` with a `u16` port (`127.0.0.1:7000`, `localhost:7000`),
/// otherwise the Unix socket at that path (`serve.sock`, `/tmp/s.sock`).
fn connect_endpoint(address: &str) -> Endpoint {
    match address.rsplit_once(':') {
        Some((_, port)) if port.parse::<u16>().is_ok() => Endpoint::Tcp(address.into()),
        _ => Endpoint::Unix(address.into()),
    }
}

/// Parses `n,t,k[,max_value[,max_crash_round[,partial_delivery]]]` with
/// the built-in Theorem 1 defaults for the omitted tail.
fn parse_scope(text: &str) -> ScopeSpec {
    let parts: Vec<&str> = text.split(',').collect();
    if !(3..=6).contains(&parts.len()) {
        usage_exit(&format!("invalid --scope {text:?} (expected n,t,k[,maxv[,mcr[,pd]]])"));
    }
    let base = ScopeSpec::builtin(
        parse_number("--scope n", parts[0]),
        parse_number("--scope t", parts[1]),
        parse_number("--scope k", parts[2]),
    );
    ScopeSpec {
        max_value: parts.get(3).map_or(base.max_value, |p| parse_number("--scope max_value", p)),
        max_crash_round: parts
            .get(4)
            .map_or(base.max_crash_round, |p| parse_number("--scope max_crash_round", p)),
        partial_delivery: parts
            .get(5)
            .map_or(base.partial_delivery, |p| parse_number("--scope pd", p)),
        ..base
    }
}

fn submit_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    let mut query: Option<String> = None;
    let mut spec = JobSpec {
        id: std::process::id() as u64,
        query: QueryKind::Thm1,
        scope: None,
        shards: 0,
        seed: SweepConfig::DEFAULT_SEED,
        shard_cache: true,
    };
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--scope" => spec.scope = Some(parse_scope(&value_of(&flag, &mut args))),
            "--shards" => spec.shards = parse_number(&flag, &value_of(&flag, &mut args)),
            "--seed" => spec.seed = parse_number(&flag, &value_of(&flag, &mut args)),
            "--id" => spec.id = parse_number(&flag, &value_of(&flag, &mut args)),
            "--no-shard-cache" => spec.shard_cache = false,
            other if !other.starts_with('-') && query.is_none() => query = Some(flag.clone()),
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let query =
        query.unwrap_or_else(|| usage_exit("missing query (thm1|omission|thm3|fig4|prop2)"));
    spec.query = parse_query(&query);
    let endpoint = endpoint.require();

    let outcome = match client::submit_with(&endpoint, &spec, &connect.options()) {
        Ok(outcome) => outcome,
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep submit: {error}"), &[]);
            std::process::exit(1);
        }
    };

    print_result(&outcome.result);

    // stderr: the canonical stats line (executed work only) plus the
    // job-level cache split and fleet accounting — the lines the CI smoke
    // stage greps.
    telemetry::log::info(LOG_TARGET, outcome.stats.stats_line(), &[]);
    telemetry::log::info(
        LOG_TARGET,
        format!(
            "job stats: {} shards total, {} cached ({:.1}% cached), {} executed ({} remote); \
             fleet: {} workers, {} leases re-queued; server wall {:.0} ms",
            outcome.shards_total,
            outcome.shards_cached,
            outcome.cached_fraction() * 100.0,
            outcome.shards_executed,
            outcome.shards_remote,
            outcome.fleet_workers,
            outcome.leases_requeued,
            outcome.wall_ms,
        ),
        &[
            ("shards_total", outcome.shards_total.into()),
            ("shards_cached", outcome.shards_cached.into()),
            ("shards_executed", outcome.shards_executed.into()),
            ("shards_remote", outcome.shards_remote.into()),
            ("fleet_workers", outcome.fleet_workers.into()),
            ("leases_requeued", outcome.leases_requeued.into()),
            ("wall_ms", outcome.wall_ms.into()),
        ],
    );
}

fn cancel_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    let mut job: Option<u64> = None;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--id" => job = Some(parse_number(&flag, &value_of(&flag, &mut args))),
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let job = job.unwrap_or_else(|| usage_exit("missing --id N"));
    match client::cancel_with(&endpoint.require(), job, &connect.options()) {
        Ok(true) => telemetry::log::info(
            LOG_TARGET,
            format!("sweep cancel: job {job} revoked"),
            &[("job", job.into())],
        ),
        Ok(false) => {
            telemetry::log::warn(
                LOG_TARGET,
                format!("sweep cancel: job {job} not found (already finished or never submitted)"),
                &[("job", job.into())],
            );
            std::process::exit(1);
        }
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep cancel: {error}"), &[]);
            std::process::exit(1);
        }
    }
}

/// `sweep stats`: fetch a running daemon's live metrics snapshot and print
/// it on stdout as an aligned table (default), one JSON object (`--json`),
/// or Prometheus text exposition (`--prom`).
fn stats_main(mut args: impl Iterator<Item = String>) {
    #[derive(PartialEq)]
    enum Output {
        Table,
        Json,
        Prometheus,
    }
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    let mut output = Output::Table;
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        match flag.as_str() {
            "--json" => output = Output::Json,
            "--prom" => output = Output::Prometheus,
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let snapshot = match client::stats_with(&endpoint.require(), &connect.options()) {
        Ok(snapshot) => snapshot,
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep stats: {error}"), &[]);
            std::process::exit(1);
        }
    };
    match output {
        Output::Table => print!("{}", snapshot.to_table()),
        Output::Json => println!("{}", snapshot.to_wire().render()),
        Output::Prometheus => print!("{}", snapshot.to_prometheus()),
    }
}

fn shutdown_main(mut args: impl Iterator<Item = String>) {
    let mut endpoint = EndpointFlag(None);
    let mut connect = ConnectFlags::new(Duration::from_secs(5));
    while let Some(flag) = args.next() {
        if endpoint.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        if connect.accept(&flag, || value_of(&flag, &mut args)) {
            continue;
        }
        usage_exit(&format!("unknown flag {flag}"));
    }
    match client::shutdown_with(&endpoint.require(), &connect.options()) {
        Ok(()) => telemetry::log::info(LOG_TARGET, "sweep shutdown: daemon acknowledged", &[]),
        Err(error) => {
            telemetry::log::error(LOG_TARGET, format!("sweep shutdown: {error}"), &[]);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_addresses_dial_tcp_only_with_a_port_suffix() {
        for path in ["serve.sock", "./serve.sock", "/tmp/s.sock"] {
            assert_eq!(connect_endpoint(path), Endpoint::Unix(path.into()), "{path}");
        }
        for address in ["127.0.0.1:7000", "localhost:7000"] {
            assert_eq!(connect_endpoint(address), Endpoint::Tcp(address.into()), "{address}");
        }
    }
}
