//! Transport: Unix-domain or TCP stream endpoints behind one interface,
//! and the line framing every peer speaks over them.
//!
//! Client, daemon and worker exchange [`Frame`]s as one JSON line each.
//! The crate reads them through one `FrameReader` and writes them
//! through one `FrameWriter`; no other code touches socket lines.  A
//! line longer than [`MAX_FRAME_BYTES`] is refused before it is decoded,
//! so a peer that never sends a newline cannot grow a reader's buffer
//! without bound, and a reader given a first-frame deadline refuses a
//! peer that completes no frame by then, however slowly it trickles bytes.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::wire::{decode_stream_line, encode_line, Frame};
use crate::ServiceError;

/// The longest frame line, newline excluded, that any reader accepts.
/// The largest real frames (a `stats-result`, a thm3 `job-done`) are a
/// few KiB, so the bound only ever stops a runaway or hostile peer.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Where the daemon listens (and clients connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (removed again on graceful
    /// shutdown).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:4150` (port `0` picks a free port;
    /// [`Listener::local_endpoint`] reports the resolved one).
    Tcp(String),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A bound listener of either flavor.  [`Listener::accept`] blocks; the
/// server's shutdown handler wakes a blocked accept by connecting to the
/// listener itself, so no signal machinery or polling is needed.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain flavor.
    Unix(UnixListener, PathBuf),
    /// TCP flavor.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the endpoint.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, bad path, …).  A stale
    /// socket file from a crashed daemon is *not* auto-removed — two
    /// daemons must not silently steal each other's endpoint.
    pub fn bind(endpoint: &Endpoint) -> Result<Listener, ServiceError> {
        match endpoint {
            Endpoint::Unix(path) => {
                let listener = UnixListener::bind(path)
                    .map_err(|e| ServiceError::io(format!("binding {}", path.display()), e))?;
                Ok(Listener::Unix(listener, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| ServiceError::io(format!("binding {addr}"), e))?;
                Ok(Listener::Tcp(listener))
            }
        }
    }

    /// The endpoint actually bound — for TCP with port `0`, the resolved
    /// port.
    pub fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
            Listener::Tcp(listener) => Endpoint::Tcp(
                listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".to_owned()),
            ),
        }
    }

    /// Blocks until a connection arrives and accepts it.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(&self) -> Result<Stream, ServiceError> {
        match self {
            Listener::Unix(listener, _) => listener.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(listener) => listener.accept().map(|(s, _)| Stream::Tcp(s)),
        }
        .map_err(|e| ServiceError::io("accepting a connection", e))
    }
}

/// How a client establishes (and authenticates) a connection.
#[derive(Debug, Clone, Default)]
pub struct ConnectOptions {
    /// Total budget for connect retries.  [`Duration::ZERO`] (the
    /// default) makes exactly one attempt — library callers and tests
    /// stay fail-fast; the CLI opts into retries explicitly.
    pub timeout: Duration,
    /// Shared secret sent as a `hello` frame right after connecting to a
    /// TCP endpoint (Unix sockets are exempt from auth).
    pub auth_token: Option<String>,
}

/// Connect failures worth retrying while a daemon is still coming up:
/// nobody listening yet (refused / socket file absent), or a listener
/// backlog race (reset / aborted / timed out).
fn retryable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotFound
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
    )
}

/// A connected stream of either flavor.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain flavor.
    Unix(UnixStream),
    /// TCP flavor.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to a daemon endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect failures (no daemon listening, bad address, …).
    pub fn connect(endpoint: &Endpoint) -> Result<Stream, ServiceError> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(Stream::Unix)
                .map_err(|e| ServiceError::io(format!("connecting to {}", path.display()), e)),
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .map(Stream::Tcp)
                .map_err(|e| ServiceError::io(format!("connecting to {addr}"), e)),
        }
    }

    /// Connects like [`Stream::connect`], but keeps retrying retryable
    /// failures (daemon not up yet) with capped exponential backoff until
    /// `timeout` elapses.  A zero timeout makes a single attempt.
    ///
    /// # Errors
    ///
    /// Returns the last connect failure once the budget is exhausted, and
    /// non-retryable failures (bad address, permission) immediately.
    pub fn connect_with(endpoint: &Endpoint, timeout: Duration) -> Result<Stream, ServiceError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut backoff = Duration::from_millis(25);
        loop {
            match Self::connect(endpoint) {
                Ok(stream) => return Ok(stream),
                Err(error) => {
                    let retry = match &error {
                        ServiceError::Io { source, .. } => retryable(source.kind()),
                        _ => false,
                    };
                    let now = std::time::Instant::now();
                    if !retry || now >= deadline {
                        return Err(error);
                    }
                    std::thread::sleep(backoff.min(deadline.saturating_duration_since(now)));
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
            }
        }
    }

    /// Clones the underlying socket handle (reader/writer split).
    ///
    /// # Errors
    ///
    /// Propagates `try_clone` failures.
    pub fn try_clone(&self) -> Result<Stream, ServiceError> {
        match self {
            Stream::Unix(s) => s
                .try_clone()
                .map(Stream::Unix)
                .map_err(|e| ServiceError::io("cloning a unix stream", e)),
            Stream::Tcp(s) => s
                .try_clone()
                .map(Stream::Tcp)
                .map_err(|e| ServiceError::io("cloning a tcp stream", e)),
        }
    }

    /// Sets the read timeout — the server uses this so a connection thread
    /// parked in a frame read on an idle client wakes up periodically
    /// to observe the shutdown flag.
    ///
    /// # Errors
    ///
    /// Propagates `set_read_timeout` failures.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Reads line frames off the read half of a connection.
pub(crate) struct FrameReader<'a> {
    reader: BufReader<DeadlineStream>,
    /// The line assembled so far; a read timeout leaves a partial line
    /// here for the next read to finish.
    line: Vec<u8>,
    /// Checked on every read timeout: once set, the reader reports EOF.
    shutdown: Option<&'a AtomicBool>,
}

/// A stream whose reads fail with `TimedOut` once its deadline has
/// passed, checked before every read of the socket.
struct DeadlineStream {
    stream: Stream,
    deadline: Option<Instant>,
}

impl DeadlineStream {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|deadline| Instant::now() >= deadline)
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.expired() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.read(buf)
    }
}

impl<'a> FrameReader<'a> {
    /// A reader over `stream`.  With a `shutdown` flag, a read timeout set
    /// on the stream makes the reader re-check the flag instead of failing.
    pub(crate) fn new(stream: Stream, shutdown: Option<&'a AtomicBool>) -> Self {
        let stream = DeadlineStream { stream, deadline: None };
        FrameReader { reader: BufReader::new(stream), line: Vec::new(), shutdown }
    }

    /// The same reader, refusing the peer with a [`ServiceError::Protocol`]
    /// error unless its first frame is complete within `limit` from now.
    /// The deadline is checked before each socket read and on each read
    /// timeout, so a stream read timeout bounds how late it is noticed.
    pub(crate) fn with_first_frame_deadline(mut self, limit: Duration) -> Self {
        self.reader.get_mut().deadline = Some(Instant::now() + limit);
        self
    }

    /// Reads the next frame, skipping blank lines and retired frame types
    /// (see [`decode_stream_line`]); `None` at EOF or once the shutdown
    /// flag is seen set (a partial line stays buffered).  An unterminated
    /// last line before EOF is decoded like a terminated one.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] for a line that does not decode (the reader
    /// stays usable), [`ServiceError::Protocol`] for a line longer than
    /// [`MAX_FRAME_BYTES`] or not UTF-8, or for a first frame not complete
    /// by the first-frame deadline, and [`ServiceError::Io`] for a failed
    /// read.  After a `Protocol` or `Io` error the caller closes the
    /// connection: an over-long line cannot be skipped.
    pub(crate) fn read_frame(&mut self) -> Result<Option<Frame>, ServiceError> {
        loop {
            let budget = (MAX_FRAME_BYTES + 1 - self.line.len()) as u64;
            if let Err(error) = (&mut self.reader).take(budget).read_until(b'\n', &mut self.line) {
                let timed_out =
                    matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut);
                match self.shutdown {
                    Some(flag) if timed_out && flag.load(Ordering::Relaxed) => return Ok(None),
                    _ if timed_out && self.reader.get_ref().expired() => {
                        self.line.clear();
                        return Err(ServiceError::Protocol(
                            "no complete frame before the first-frame deadline".into(),
                        ));
                    }
                    Some(_) if timed_out => continue,
                    _ => return Err(ServiceError::io("reading a frame", error)),
                }
            }
            // Short of the budget without a newline means EOF; a full
            // budget without one means the line is over the bound.
            let terminated = self.line.last() == Some(&b'\n');
            if !terminated && self.line.len() > MAX_FRAME_BYTES {
                self.line.clear();
                return Err(ServiceError::Protocol(format!(
                    "frame line longer than {MAX_FRAME_BYTES} bytes"
                )));
            }
            let decoded = match std::str::from_utf8(&self.line) {
                Ok(text) => decode_stream_line(text).map_err(ServiceError::from),
                Err(_) => Err(ServiceError::Protocol("frame line is not UTF-8".into())),
            };
            self.line.clear();
            match decoded {
                Ok(None) if terminated => continue,
                Ok(Some(frame)) => {
                    self.reader.get_mut().deadline = None;
                    return Ok(Some(frame));
                }
                frame => return frame,
            }
        }
    }
}

/// Writes line frames to the write half of a connection.  Clones share
/// the half, so threads that send on one connection (a job's connection
/// thread, a worker's heartbeat) never interleave two frames' bytes.
#[derive(Clone)]
pub(crate) struct FrameWriter(Arc<Mutex<Stream>>);

impl FrameWriter {
    /// A writer over `stream`, usually a [`Stream::try_clone`] of the
    /// half a [`FrameReader`] reads.
    pub(crate) fn new(stream: Stream) -> Self {
        FrameWriter(Arc::new(Mutex::new(stream)))
    }

    /// Sends one frame, reporting whether the peer is still connected.
    pub(crate) fn send(&self, frame: &Frame) -> bool {
        let line = encode_line(frame);
        let mut stream = self.0.lock().expect("frame writer lock");
        stream.write_all(line.as_bytes()).and_then(|()| stream.flush()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `bytes` into one end of a socket pair, closes it, and reads
    /// the other end until EOF or an error that ends the connection.
    fn read_all(bytes: &[u8]) -> Vec<Result<Option<Frame>, ServiceError>> {
        let (mut tx, rx) = UnixStream::pair().expect("socket pair");
        let bytes = bytes.to_vec();
        let writer = std::thread::spawn(move || tx.write_all(&bytes).expect("write"));
        let mut reader = FrameReader::new(Stream::Unix(rx), None);
        let mut frames = Vec::new();
        loop {
            let frame = reader.read_frame();
            let last = !matches!(frame, Ok(Some(_)) | Err(ServiceError::Wire(_)));
            frames.push(frame);
            if last {
                break;
            }
        }
        writer.join().expect("writer thread");
        frames
    }

    /// A `hello` line of exactly `len` bytes.
    fn hello_line(len: usize) -> String {
        let empty = r#"{"type":"hello","token":""}"#;
        let token = "x".repeat(len - empty.len());
        format!(r#"{{"type":"hello","token":"{token}"}}"#)
    }

    #[test]
    fn a_line_at_the_bound_decodes_and_one_byte_more_is_refused() {
        let line = hello_line(MAX_FRAME_BYTES);
        assert_eq!(line.len(), MAX_FRAME_BYTES);
        let frames = read_all(format!("{line}\n").as_bytes());
        assert!(
            matches!(&frames[0], Ok(Some(Frame::Hello { token })) if token.len() > 1000),
            "a line of exactly the bound decodes"
        );
        assert!(matches!(frames[1], Ok(None)), "then EOF");

        let frames = read_all(format!("{}\n", hello_line(MAX_FRAME_BYTES + 1)).as_bytes());
        match &frames[0] {
            Err(ServiceError::Protocol(message)) => {
                assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "{message}")
            }
            other => panic!("expected the bound to refuse the line, got {other:?}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped_and_a_bad_line_leaves_the_reader_usable() {
        let frames = read_all(
            b"\n  \r\n{\"type\":\"partial\",\"job\":1}\n{\"type\":\"stats\"}\nnot json\n\
              {\"type\":\"shutdown\"}",
        );
        assert!(matches!(frames[0], Ok(Some(Frame::Stats))), "the retired partial line is skipped");
        assert!(matches!(frames[1], Err(ServiceError::Wire(_))));
        assert!(matches!(frames[2], Ok(Some(Frame::Shutdown))), "unterminated last line");
        assert!(matches!(frames[3], Ok(None)));
    }

    #[test]
    fn a_set_shutdown_flag_ends_a_read_and_keeps_the_partial_line() {
        let (mut tx, rx) = UnixStream::pair().expect("socket pair");
        rx.set_read_timeout(Some(Duration::from_millis(10))).expect("read timeout");
        let shutdown = AtomicBool::new(true);
        let mut reader = FrameReader::new(Stream::Unix(rx), Some(&shutdown));
        // The read times out mid-line, sees the flag and ends ...
        tx.write_all(b"{\"type\":").expect("write");
        assert!(matches!(reader.read_frame(), Ok(None)));
        // ... without dropping the bytes it had read.
        shutdown.store(false, Ordering::Relaxed);
        tx.write_all(b"\"stats\"}\n").expect("write");
        assert!(matches!(reader.read_frame(), Ok(Some(Frame::Stats))));
    }

    #[test]
    fn a_first_frame_deadline_refuses_a_trickling_peer_and_lifts_after_one_frame() {
        let (mut tx, rx) = UnixStream::pair().expect("socket pair");
        rx.set_read_timeout(Some(Duration::from_millis(10))).expect("read timeout");
        let shutdown = AtomicBool::new(false);
        let limit = Duration::from_millis(150);
        // A peer that keeps sending bytes but never a whole line is cut
        // off at the deadline all the same.
        let mut reader =
            FrameReader::new(Stream::Unix(rx), Some(&shutdown)).with_first_frame_deadline(limit);
        let writer = std::thread::spawn(move || {
            for _ in 0..40 {
                if tx.write_all(b" ").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let start = Instant::now();
        assert!(matches!(reader.read_frame(), Err(ServiceError::Protocol(_))));
        assert!(start.elapsed() >= limit && start.elapsed() < Duration::from_secs(5));
        writer.join().expect("writer thread");

        // A first frame in time lifts the deadline for good.
        let (mut tx, rx) = UnixStream::pair().expect("socket pair");
        rx.set_read_timeout(Some(Duration::from_millis(10))).expect("read timeout");
        let mut reader =
            FrameReader::new(Stream::Unix(rx), Some(&shutdown)).with_first_frame_deadline(limit);
        tx.write_all(b"{\"type\":\"stats\"}\n").expect("write");
        assert!(matches!(reader.read_frame(), Ok(Some(Frame::Stats))));
        std::thread::sleep(limit * 2);
        tx.write_all(b"{\"type\":\"shutdown\"}\n").expect("write");
        assert!(matches!(reader.read_frame(), Ok(Some(Frame::Shutdown))));
    }
}
