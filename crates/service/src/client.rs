//! The blocking clients behind `sweep submit`, `cancel`, `stats` and
//! `shutdown`: send one request, read its reply frames, return the result.

use sweep::SweepStats;
use telemetry::MetricsSnapshot;

use crate::net::{ConnectOptions, Endpoint, FrameReader, FrameWriter, Stream};
use crate::wire::{Frame, JobSpec, QueryResult, ShardDone};
use crate::ServiceError;

/// Everything a completed job streamed back.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The final, fully merged result — bit-identical to an in-process
    /// `sweep::sweep_with_stats` fold of the same job.
    pub result: QueryResult,
    /// Statistics of the executed (non-cached) work; a fully warm job
    /// reports zero scenarios.
    pub stats: SweepStats,
    /// Shards the job was partitioned into, over all cases.
    pub shards_total: u64,
    /// Shards replayed from the daemon's accumulator cache.
    pub shards_cached: u64,
    /// Shards executed on the daemon's worker pool.
    pub shards_executed: u64,
    /// Remote workers registered with the daemon when the job finished.
    pub fleet_workers: u64,
    /// Of the executed shards, how many ran on remote workers.
    pub shards_remote: u64,
    /// Leases a worker lost whose shards the daemon's local pool re-ran.
    pub leases_requeued: u64,
    /// Every `shard-done` frame, in arrival order.
    pub shard_frames: Vec<ShardDone>,
    /// Server-side wall time of the job in milliseconds.
    pub wall_ms: f64,
}

impl JobOutcome {
    /// Fraction of shards served from the accumulator cache, in `[0, 1]`.
    pub fn cached_fraction(&self) -> f64 {
        if self.shards_total == 0 {
            0.0
        } else {
            self.shards_cached as f64 / self.shards_total as f64
        }
    }
}

/// Connects under `options`: capped-backoff retries until the connect
/// timeout elapses, then — on a TCP endpoint with a configured token —
/// the `hello` auth handshake as the first frame.  Unix sockets skip the
/// handshake (filesystem permissions already gate them).
pub(crate) fn open(
    endpoint: &Endpoint,
    options: &ConnectOptions,
) -> Result<(FrameReader<'static>, FrameWriter), ServiceError> {
    let stream = Stream::connect_with(endpoint, options.timeout)?;
    let writer = FrameWriter::new(stream.try_clone()?);
    if let (Some(token), Endpoint::Tcp(_)) = (&options.auth_token, endpoint) {
        writer.send(&Frame::Hello { token: token.clone() });
    }
    Ok((FrameReader::new(stream, None), writer))
}

/// The one request loop of every client call: connects, sends `request`,
/// and feeds each reply frame to `reply` until it returns a value.  An
/// `error` frame ends the call as [`ServiceError::Remote`], and EOF as a
/// protocol violation described by `closed`.
///
/// A failed send is not reported by itself: the daemon may have closed
/// the connection with an `error` frame saying why (a refused auth
/// token), and reading on surfaces that frame, or EOF.
fn request<T>(
    endpoint: &Endpoint,
    options: &ConnectOptions,
    request: &Frame,
    closed: &str,
    mut reply: impl FnMut(Frame) -> Result<Option<T>, ServiceError>,
) -> Result<T, ServiceError> {
    let (mut reader, writer) = open(endpoint, options)?;
    writer.send(request);
    loop {
        match reader.read_frame()? {
            None => return Err(ServiceError::Protocol(closed.into())),
            Some(Frame::Error(error)) => {
                return Err(ServiceError::Remote { kind: error.kind, message: error.message })
            }
            Some(frame) => {
                if let Some(value) = reply(frame)? {
                    return Ok(value);
                }
            }
        }
    }
}

fn unexpected(frame: Frame) -> ServiceError {
    ServiceError::Protocol(format!("unexpected frame {frame:?}"))
}

/// Submits one job to a running daemon and blocks until its terminal
/// frame, collecting the streamed progress along the way.
///
/// # Errors
///
/// Returns connection and wire failures, a server-reported job error, or
/// a protocol violation (connection closed mid-job, mismatched job id).
pub fn submit(endpoint: &Endpoint, spec: &JobSpec) -> Result<JobOutcome, ServiceError> {
    submit_with(endpoint, spec, &ConnectOptions::default())
}

/// [`submit`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`submit`].
pub fn submit_with(
    endpoint: &Endpoint,
    spec: &JobSpec,
    options: &ConnectOptions,
) -> Result<JobOutcome, ServiceError> {
    let mut shard_frames = Vec::new();
    let closed = "connection closed before the job finished";
    request(endpoint, options, &Frame::Job(spec.clone()), closed, |frame| match frame {
        Frame::ShardDone(frame) => {
            shard_frames.push(frame);
            Ok(None)
        }
        Frame::JobDone(done) if done.job != spec.id => Err(ServiceError::Protocol(format!(
            "job-done for job {} while waiting on job {}",
            done.job, spec.id
        ))),
        Frame::JobDone(done) => Ok(Some(JobOutcome {
            result: done.result,
            stats: done.stats,
            shards_total: done.shards_total,
            shards_cached: done.shards_cached,
            shards_executed: done.shards_executed,
            fleet_workers: done.fleet_workers,
            shards_remote: done.shards_remote,
            leases_requeued: done.leases_requeued,
            shard_frames: std::mem::take(&mut shard_frames),
            wall_ms: done.wall_ms,
        })),
        other => Err(unexpected(other)),
    })
}

/// Asks a running daemon to revoke a running job by its id,
/// returning whether the daemon knew the job when the cancel arrived.
/// The revoked job itself terminates with a `cancelled` error frame on
/// the connection that submitted it.
///
/// # Errors
///
/// Returns connection and wire failures, a server-reported error, or a
/// protocol violation (connection closed before the acknowledgement).
pub fn cancel(endpoint: &Endpoint, job: u64) -> Result<bool, ServiceError> {
    cancel_with(endpoint, job, &ConnectOptions::default())
}

/// [`cancel`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`cancel`].
pub fn cancel_with(
    endpoint: &Endpoint,
    job: u64,
    options: &ConnectOptions,
) -> Result<bool, ServiceError> {
    let closed = "daemon closed without acknowledging";
    request(endpoint, options, &Frame::Cancel { job }, closed, |frame| match frame {
        Frame::CancelAck { job: acked, .. } if acked != job => Err(ServiceError::Protocol(
            format!("cancel-ack for job {acked} while cancelling job {job}"),
        )),
        Frame::CancelAck { found, .. } => Ok(Some(found)),
        other => Err(unexpected(other)),
    })
}

/// Asks a running daemon for a point-in-time metrics snapshot — job and
/// phase metrics from its registry plus sampled cache/store/lease
/// counters (see the `telemetry` crate for the metric names).
///
/// # Errors
///
/// Returns connection and wire failures, a server-reported error, or a
/// protocol violation (connection closed before the snapshot).
pub fn stats(endpoint: &Endpoint) -> Result<MetricsSnapshot, ServiceError> {
    stats_with(endpoint, &ConnectOptions::default())
}

/// [`stats`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`stats`].
pub fn stats_with(
    endpoint: &Endpoint,
    options: &ConnectOptions,
) -> Result<MetricsSnapshot, ServiceError> {
    let closed = "daemon closed without a stats result";
    request(endpoint, options, &Frame::Stats, closed, |frame| match frame {
        Frame::StatsResult(snapshot) => Ok(Some(snapshot)),
        other => Err(unexpected(other)),
    })
}

/// Asks a running daemon to shut down gracefully and waits for the
/// acknowledgement.
///
/// # Errors
///
/// Returns connection and wire failures, or a protocol violation if the
/// daemon closes the connection without acknowledging.
pub fn shutdown(endpoint: &Endpoint) -> Result<(), ServiceError> {
    shutdown_with(endpoint, &ConnectOptions::default())
}

/// [`shutdown`] with explicit connect options (retry budget, auth token).
///
/// # Errors
///
/// As [`shutdown`].
pub fn shutdown_with(endpoint: &Endpoint, options: &ConnectOptions) -> Result<(), ServiceError> {
    let closed = "daemon closed without acknowledging";
    request(endpoint, options, &Frame::Shutdown, closed, |frame| match frame {
        Frame::ShuttingDown => Ok(Some(())),
        other => Err(unexpected(other)),
    })
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixListener;

    use super::*;
    use crate::wire::{decode_line, QueryKind};

    /// An older daemon's reply to a one-shard thm1 job: it was built as
    /// `0.1.0+fold.v3`, like this one, but before the `partial` frame was
    /// retired, so a `partial` line follows the `shard-done`.
    const OLDER_DAEMON_REPLY: [&str; 3] = [
        r#"{"type":"shard-done","job":5,"case":0,"cases":1,"shard":0,"shards":1,"start":0,"end":200,"cached":false,"stats":{"scenarios":200,"cache_hits":0,"cache_misses":0,"runs_simulated":8,"runs_reused":192,"cursor_materialized":8,"cursor_stepped":192,"patterns_unranked":8}}"#,
        r#"{"type":"partial","job":5,"case":0,"shards_done":1,"shards":1,"scenarios_done":200,"fold":{"violations":0,"beaten":[false,false],"structure":0}}"#,
        r#"{"type":"job-done","job":5,"result":{"query":"thm1","rows":[{"n":3,"t":1,"k":1,"adversaries":200,"correctness_violations":0,"beaten_by":0,"structure_violations":0}]},"stats":{"scenarios":200,"cache_hits":0,"cache_misses":0,"runs_simulated":8,"runs_reused":192,"cursor_materialized":8,"cursor_stepped":192,"patterns_unranked":8},"shards_total":1,"shards_cached":0,"shards_executed":1,"fleet_workers":0,"shards_remote":0,"leases_requeued":0,"wall_ms":2.5}"#,
    ];

    #[test]
    fn an_older_daemons_partial_frames_are_skipped() {
        let path = std::env::temp_dir().join(format!("sweep-older-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind a socket");
        let daemon = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the client");
            BufReader::new(&stream).read_line(&mut String::new()).expect("read the job line");
            let reply = format!("{}\n", OLDER_DAEMON_REPLY.join("\n"));
            (&stream).write_all(reply.as_bytes()).expect("write the reply");
        });
        let spec = JobSpec {
            id: 5,
            query: QueryKind::Thm1,
            scope: None,
            shards: 1,
            seed: 1,
            shard_cache: true,
        };
        let outcome = submit(&Endpoint::Unix(path.clone()), &spec).expect("submit");
        daemon.join().expect("listener thread");
        std::fs::remove_file(&path).expect("remove the socket");
        let Ok(Frame::JobDone(done)) = decode_line(OLDER_DAEMON_REPLY[2]) else {
            panic!("the job-done line decodes")
        };
        assert_eq!(outcome.result, done.result);
        assert_eq!(outcome.shard_frames.len(), 1);
    }
}
