//! Bounded request-line reading for untrusted streams.
//!
//! `BufRead::lines()` happily buffers a single newline-free line of any
//! length — one malicious (or simply buggy) peer could balloon resident
//! memory without ever reaching the JSON parser's depth cap.
//! [`CappedLineReader`] is the reader of the one session loop
//! ([`crate::session`]), so stdin and every TCP connection read through
//! it: it owns a small accumulation buffer, enforces a hard per-line byte
//! cap, and reports an over-long line as a structured
//! [`LineEvent::OverLimit`] *after physically discarding it in bounded
//! chunks* — memory stays O(cap + one read chunk) no matter what the peer
//! sends. A final line without a newline is returned like any other.
//!
//! The session reads in two steps: [`CappedLineReader::next_event`]
//! blocks for the first line of a batch, and
//! [`CappedLineReader::next_buffered`] hands over the complete lines
//! already buffered without touching the stream, which is how a batch
//! coalesces pipelined requests without waiting for more.
//!
//! The reader also cooperates with socket read timeouts: a
//! `WouldBlock`/`TimedOut` read surfaces as [`LineEvent::Idle`] with any
//! partial line retained, so a session can interleave housekeeping
//! (landing a finished background re-fit, checking the shutdown flag)
//! with blocking reads — no extra threads, no lost bytes.

use std::io::Read;

/// Default request-line cap: 1 MiB. Generous for the JSON-lines protocol
/// (a large commit with hundreds of links is a few KiB) while keeping a
/// hostile peer's memory footprint bounded. Overridden by
/// `--max-request-bytes` on the binary.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

/// One step of [`CappedLineReader::next_event`].
#[derive(Debug)]
pub enum LineEvent {
    /// A complete request line (terminator stripped, `\r\n` tolerated).
    Line(String),
    /// A line exceeded the cap. The entire offending line has already
    /// been consumed (discarded in bounded chunks), so the stream is
    /// positioned at the next line; `discarded` is the byte length seen.
    /// The serving layer answers with a structured `BadRequest` — and a
    /// TCP connection additionally closes, since a peer that overflows
    /// the cap once is not negotiating in good faith.
    OverLimit {
        /// Bytes of the over-long line (lower bound: counting stops
        /// with the line, but the line was consumed in full).
        discarded: usize,
    },
    /// A complete line arrived but is not valid UTF-8. Consumed;
    /// answered with a structured error, stream keeps going.
    NotUtf8,
    /// The read timed out (`WouldBlock`/`TimedOut`) — only surfaces on
    /// streams with a read timeout set. Any partial line is retained and
    /// resumes on the next call; the caller uses the gap for
    /// housekeeping.
    Idle,
    /// End of stream (a final unterminated line is returned first).
    Eof,
    /// A non-retriable read error.
    Err(std::io::Error),
}

/// A line reader with a hard per-line byte cap. See the module docs.
pub struct CappedLineReader<R> {
    inner: R,
    /// Bytes read from the stream; `pos..` is the unconsumed tail (at
    /// most `max` + one chunk once compacted).
    buf: Vec<u8>,
    /// Start of the unconsumed region. Consuming a line just advances
    /// this cursor; the buffer is compacted (one `copy_within`) right
    /// before each read, so draining a chunk full of pipelined lines is
    /// linear, not quadratic.
    pos: usize,
    /// Where the newline scan resumes (everything in `pos..scan` was
    /// already scanned without finding one).
    scan: usize,
    max: usize,
    /// Bytes of the current line already dropped: non-zero only while an
    /// over-long line is being discarded.
    dropped: usize,
    eof: bool,
}

impl<R: Read> CappedLineReader<R> {
    /// Wraps `inner` with a per-line cap of `max_line_bytes`.
    pub fn new(inner: R, max_line_bytes: usize) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            pos: 0,
            scan: 0,
            max: max_line_bytes.max(1),
            dropped: 0,
            eof: false,
        }
    }

    /// Extracts `buf[pos..i]` as a line (dropping the `\n` at `i`, and a
    /// preceding `\r` if present), advancing the cursor past it; a line
    /// over the cap, counting its dropped bytes, is only skipped.
    fn take_line(&mut self, i: usize) -> LineEvent {
        let start = self.pos;
        self.pos = i + 1;
        self.scan = self.pos;
        let len = std::mem::take(&mut self.dropped) + i - start;
        if len > self.max {
            return LineEvent::OverLimit { discarded: len };
        }
        let mut line = &self.buf[start..i];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        match std::str::from_utf8(line) {
            Ok(s) => LineEvent::Line(s.to_owned()),
            Err(_) => LineEvent::NotUtf8,
        }
    }

    /// A complete line already sitting in the buffer, without touching
    /// the underlying stream — how a session coalesces pipelined
    /// requests into one batch without risking a block on the socket.
    /// Over-limit/UTF-8 events surface here too (they must keep their
    /// position in the request order).
    pub fn next_buffered(&mut self) -> Option<LineEvent> {
        if let Some(i) = memchr_newline(&self.buf[self.scan..]) {
            return Some(self.take_line(self.scan + i));
        }
        self.scan = self.buf.len();
        if self.dropped + self.buf.len() - self.pos > self.max {
            // Over the cap with no newline in sight: drop what we hold;
            // the event fires once the line's end is actually consumed.
            self.dropped += self.buf.len() - self.pos;
            self.buf.clear();
            self.pos = 0;
            self.scan = 0;
        }
        None
    }

    /// The next event from the stream; blocks (up to the stream's read
    /// timeout, if any) when no complete line is buffered.
    pub fn next_event(&mut self) -> LineEvent {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(event) = self.next_buffered() {
                return event;
            }
            if self.eof {
                return LineEvent::Eof;
            }
            // Reclaim consumed bytes before appending, keeping the buffer
            // bounded by `max` + one chunk.
            if self.pos > 0 {
                self.buf.copy_within(self.pos.., 0);
                self.buf.truncate(self.buf.len() - self.pos);
                self.scan -= self.pos;
                self.pos = 0;
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    // Terminate a final unterminated line, or the tail of
                    // an over-long one: the next scan ends it like any
                    // other.
                    if self.dropped > 0 || self.pos < self.buf.len() {
                        self.buf.push(b'\n');
                    }
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::Interrupted => continue,
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return LineEvent::Idle
                    }
                    _ => return LineEvent::Err(e),
                },
            }
        }
    }
}

/// `memchr(b'\n')` without the dependency.
fn memchr_newline(haystack: &[u8]) -> Option<usize> {
    haystack.iter().position(|&b| b == b'\n')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8], max: usize) -> CappedLineReader<std::io::Cursor<Vec<u8>>> {
        CappedLineReader::new(std::io::Cursor::new(bytes.to_vec()), max)
    }

    #[test]
    fn plain_lines_round_trip() {
        let mut r = reader(b"alpha\nbeta\r\n\ngamma", 64);
        for expected in ["alpha", "beta", "", "gamma"] {
            match r.next_event() {
                LineEvent::Line(l) => assert_eq!(l, expected),
                other => panic!("expected {expected:?}, got {other:?}"),
            }
        }
        assert!(matches!(r.next_event(), LineEvent::Eof));
        assert!(matches!(r.next_event(), LineEvent::Eof));
    }

    #[test]
    fn over_long_line_is_discarded_not_buffered() {
        // 10 MiB line against a 1 KiB cap: the reader must never hold
        // more than cap + chunk bytes.
        let mut input = vec![b'x'; 10 << 20];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let mut r = reader(&input, 1024);
        match r.next_event() {
            LineEvent::OverLimit { discarded } => assert_eq!(discarded, 10 << 20),
            other => panic!("expected OverLimit, got {other:?}"),
        }
        assert!(
            r.buf.capacity() <= 1024 + 2 * 8192,
            "buffer ballooned to {}",
            r.buf.capacity()
        );
        match r.next_event() {
            LineEvent::Line(l) => assert_eq!(l, "ok"),
            other => panic!("expected the next line, got {other:?}"),
        }
    }

    #[test]
    fn exactly_max_passes_one_more_fails() {
        let max = 8;
        let mut input = vec![b'a'; max];
        input.push(b'\n');
        input.extend(vec![b'b'; max + 1]);
        input.push(b'\n');
        let mut r = reader(&input, max);
        assert!(matches!(r.next_event(), LineEvent::Line(l) if l.len() == max));
        assert!(matches!(
            r.next_event(),
            LineEvent::OverLimit { discarded } if discarded == max + 1
        ));
        assert!(matches!(r.next_event(), LineEvent::Eof));
    }

    #[test]
    fn unterminated_final_line_is_returned() {
        let mut r = reader(b"tail", 64);
        assert!(matches!(r.next_event(), LineEvent::Line(l) if l == "tail"));
        assert!(matches!(r.next_event(), LineEvent::Eof));
        // … and an unterminated over-long tail is still rejected.
        let mut r = reader(&[b'x'; 100], 10);
        assert!(matches!(r.next_event(), LineEvent::OverLimit { .. }));
        assert!(matches!(r.next_event(), LineEvent::Eof));
    }

    #[test]
    fn invalid_utf8_is_a_structured_event() {
        let mut r = reader(b"\xff\xfe\n{\"op\":\"stats\"}\n", 64);
        assert!(matches!(r.next_event(), LineEvent::NotUtf8));
        assert!(matches!(r.next_event(), LineEvent::Line(l) if l.contains("stats")));
    }

    #[test]
    fn next_buffered_drains_pipelined_lines_without_reading() {
        struct PanicAfterFirst {
            data: Option<Vec<u8>>,
        }
        impl Read for PanicAfterFirst {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let d = self.data.take().expect("next_buffered must not read");
                out[..d.len()].copy_from_slice(&d);
                Ok(d.len())
            }
        }
        let mut r = CappedLineReader::new(
            PanicAfterFirst {
                data: Some(b"a\nb\nc\n".to_vec()),
            },
            64,
        );
        assert!(matches!(r.next_event(), LineEvent::Line(l) if l == "a"));
        assert!(matches!(r.next_buffered(), Some(LineEvent::Line(l)) if l == "b"));
        assert!(matches!(r.next_buffered(), Some(LineEvent::Line(l)) if l == "c"));
        assert!(r.next_buffered().is_none());
    }

    #[test]
    fn idle_preserves_partial_lines() {
        struct TimeoutThen {
            step: usize,
        }
        impl Read for TimeoutThen {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.step += 1;
                match self.step {
                    1 => {
                        out[..4].copy_from_slice(b"part");
                        Ok(4)
                    }
                    2 => Err(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
                    _ => {
                        out[..4].copy_from_slice(b"ial\n");
                        Ok(4)
                    }
                }
            }
        }
        let mut r = CappedLineReader::new(TimeoutThen { step: 0 }, 64);
        assert!(matches!(r.next_event(), LineEvent::Idle));
        assert!(matches!(r.next_event(), LineEvent::Line(l) if l == "partial"));
    }
}
