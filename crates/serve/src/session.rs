//! The one session loop behind both transports, and the one router.
//!
//! A session (`run`) reads request lines through [`CappedLineReader`],
//! coalesces the complete lines already buffered into a batch of at most
//! `batch` requests, answers the batch through `route`, and writes the
//! responses with one `write_all` + flush. It never waits for a line that
//! is not buffered yet, so a lone request is answered at once, and a
//! blank or whitespace-only line is answered with nothing. A session
//! returns how it ended (`End`); each transport decides what follows in
//! one place:
//!
//! * the TCP front-end ([`crate::net`]) runs one session per connection
//!   and closes the connection on every end — a write error or an
//!   over-limit line included;
//! * the binary's stdio mode is one session over stdin/stdout
//!   ([`serve_stdio`]): an over-limit line is answered and the session
//!   goes on, and a write error ends the process after it quiesces
//!   (exit 0 on a broken pipe, 1 otherwise).
//!
//! # Routing
//!
//! `route` decides, for every batch on every path — TCP, stdio and
//! [`RefreshableEngine::handle_batch`] — which requests run under the
//! mutation lane and which are answered from a read core. One pass over
//! the batch (`Lane::map`) parses and decodes each line, and answers it
//! when it reads nothing but the core. That pass runs on the worker pool
//! for an engine that owns one, and on the connection thread over TCP, so
//! a stdio batch takes one pool round trip and a TCP read never waits on
//! the lane mutex. The lane requests then run in stream order. A read
//! behind a lane request that moved the core is answered again from the
//! new core, so the responses reflect one consistent interleaving. The
//! core is re-pinned at the top of every batch, which is where a
//! read-only stream picks up a finished background re-fit.

use crate::engine::QueryCore;
use crate::error::ServeError;
use crate::json::Json;
use crate::lines::{CappedLineReader, LineEvent};
use crate::metrics::ServeMetrics;
use crate::net::NetConfig;
use crate::refresh::RefreshableEngine;
use crate::request::{respond, Body, Request};
use genclus_obs::log;
use std::io::{Read, Write};
use std::time::Instant;

/// Where a batch is answered: a read core plus the mutation lane.
pub(crate) trait Lane {
    /// Picks up the newest core — lands a finished re-fit, or re-pins a
    /// connection to the latest publish — and returns its generation,
    /// which moves whenever the core [`Self::core`] returns changes.
    fn repin(&mut self) -> u64;
    /// The core reads are answered from.
    fn core(&self) -> &QueryCore;
    /// Maps `f` over a batch, results in input order.
    fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>;
    /// Answers a request that [takes the lane](Request::takes_lane).
    fn answer(&mut self, req: &Request<'_>, started: Option<Instant>) -> String;
    /// False once the session should stop; checked before every read.
    fn open(&self) -> bool {
        true
    }
    /// Housekeeping while the peer is quiet (a read timed out).
    fn idle(&mut self) {}
}

/// Answers `lines` in order through `lane`, handing each response to
/// `emit`. Latencies are recorded in stream order; a request's is its own
/// parse and answer time, not the batch's wait.
pub(crate) fn route(
    lane: &mut impl Lane,
    metrics: &ServeMetrics,
    lines: &[String],
    mut emit: impl FnMut(String),
) {
    let pinned = lane.repin();
    let mut current = pinned;
    let core = lane.core();
    let pre = lane.map(lines, |line| {
        let started = metrics.timer();
        let json = Json::parse(line);
        let req = Request::decode(&json);
        let read = req
            .reads_core_only()
            .then(|| req.render(|op| core.execute(op)));
        (json, read, started.map(|t| t.elapsed()))
    });
    for (json, read, elapsed) in pre {
        emit(match read {
            Some(read) if current == pinned => read.record_elapsed(metrics, elapsed),
            _ => {
                let started = elapsed.and_then(|d| Instant::now().checked_sub(d));
                let req = Request::decode(&json);
                if req.takes_lane() {
                    let response = lane.answer(&req, started);
                    current = lane.repin();
                    response
                } else {
                    req.render(|op| lane.core().execute(op))
                        .record(metrics, started)
                }
            }
        });
    }
}

/// How a session ended.
pub(crate) enum End {
    /// The peer closed its side.
    Eof,
    /// Reading a request failed.
    ReadError(std::io::Error),
    /// Writing a batch's responses failed.
    WriteError(std::io::Error),
    /// A line over the byte cap was answered; the lines behind it are
    /// still buffered, so running the session again goes on after it.
    OverLimit,
    /// [`Lane::open`] turned false.
    Shutdown,
}

/// Runs a session: answers batch after batch from `reader` to `writer`
/// until the stream ends.
pub(crate) fn run<R: Read>(
    reader: &mut CappedLineReader<R>,
    writer: &mut impl Write,
    lane: &mut impl Lane,
    metrics: &ServeMetrics,
    cfg: &NetConfig,
) -> End {
    let (mut lines, mut out) = (Vec::new(), String::new());
    while lane.open() {
        let mut next = match reader.next_event() {
            LineEvent::Idle => {
                lane.idle();
                continue;
            }
            LineEvent::Eof => return End::Eof,
            LineEvent::Err(e) => return End::ReadError(e),
            event => Some(event),
        };
        // An over-limit or non-UTF-8 line closes the batch, so its error
        // keeps its place in the response order.
        lines.clear();
        let mut rejected = None;
        while let Some(event) = next {
            match event {
                LineEvent::Line(line) if line.trim().is_empty() => {}
                LineEvent::Line(line) => lines.push(line),
                event => {
                    rejected = Some(event);
                    break;
                }
            }
            next = (lines.len() < cfg.batch)
                .then(|| reader.next_buffered())
                .flatten();
        }
        out.clear();
        route(lane, metrics, &lines, |response| {
            out.push_str(&response);
            out.push('\n');
        });
        let over_limit = matches!(rejected, Some(LineEvent::OverLimit { .. }));
        if let Some(event) = rejected {
            let message = match event {
                LineEvent::OverLimit { discarded } => {
                    metrics.record_over_limit();
                    format!(
                        "request line of {discarded} bytes exceeds the {}-byte limit \
                         (--max-request-bytes)",
                        cfg.max_request_bytes
                    )
                }
                _ => "request line is not valid UTF-8".into(),
            };
            let error = Err::<Body, _>(ServeError::BadRequest(message));
            out.push_str(&respond(None, "other", error).record(metrics, metrics.timer()));
            out.push('\n');
        }
        if let Err(e) = writer
            .write_all(out.as_bytes())
            .and_then(|()| writer.flush())
        {
            return End::WriteError(e);
        }
        if over_limit {
            return End::OverLimit;
        }
    }
    End::Shutdown
}

/// Serves stdin/stdout as one session through `engine`, batches of at
/// most `cfg.batch` requests, until stdin ends. A line over
/// `cfg.max_request_bytes` is answered and the session goes on. A stdin read
/// error ends the session like EOF, and so does a broken stdout pipe: the
/// consumer went away, which is an EOF, not a crash. Each is logged.
///
/// # Errors
/// Any other stdout write error, logged; the caller should exit non-zero
/// once it has quiesced.
pub fn serve_stdio(engine: &mut RefreshableEngine, cfg: &NetConfig) -> std::io::Result<()> {
    let metrics = engine.engine().metrics().clone();
    let mut reader = CappedLineReader::new(std::io::stdin().lock(), cfg.max_request_bytes);
    let mut writer = std::io::stdout().lock();
    loop {
        return match run(&mut reader, &mut writer, engine, &metrics, cfg) {
            End::OverLimit => continue,
            End::Eof | End::Shutdown => Ok(()),
            End::ReadError(e) => {
                log::error(format!("stdin read failed: {e}"));
                Ok(())
            }
            End::WriteError(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                log::info("stdout closed; exiting");
                Ok(())
            }
            End::WriteError(e) => {
                log::error(format!("stdout write failed: {e}"));
                Err(e)
            }
        };
    }
}
