//! Bounded, resynchronizing line framing for the wire protocol.
//!
//! The protocol is one JSON object per `\n`-terminated line, but the bytes
//! arrive from untrusted sockets: clients split frames at arbitrary byte
//! boundaries, dribble one byte at a time (slow loris), stream an endless
//! line with no newline, interleave garbage, or vanish mid-frame. The old
//! front-end used `BufReader::read_line` with a `take` cap, which had two
//! fault-discipline holes: a read timeout mid-line *discarded the partial
//! line* (data loss for any client slower than the poll tick), and an
//! oversized line killed the connection even though the next newline is a
//! perfectly good resynchronization point.
//!
//! [`FrameReader`] fixes both. It owns the partial-frame buffer across
//! timeouts, enforces the [`MAX_FRAME_BYTES`] cap by *discarding through the
//! next newline* (typed [`FrameError::Oversized`], then the stream is back
//! in sync), reports how long the current frame has been in flight so the
//! server can shed slow-loris clients with a typed error instead of pinning
//! a worker, and surfaces every failure as a typed [`FrameError`] the server
//! maps onto wire-level error codes. Invalid UTF-8 is replaced rather than
//! fatal: garbage bytes become a JSON parse error one layer up, and the
//! connection survives.

use std::io::Read;
use std::time::{Duration, Instant};

/// Upper bound on one frame (request line), in bytes. Anything longer is
/// discarded through its terminating newline and reported as
/// [`FrameError::Oversized`]; the reader then resynchronizes on the next
/// frame.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// One successfully framed unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (terminator stripped, lossy UTF-8) within the cap.
    Line(String),
    /// The peer closed cleanly with no partial frame outstanding.
    Eof,
}

/// Typed framing failures. None of these are silent: the server answers
/// recoverable ones on the wire and closes the connection for the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A frame exceeded the cap. `discarded` bytes were skipped; the reader
    /// has resynchronized at the next newline and can keep framing.
    Oversized {
        /// Bytes discarded, including the terminating newline when present.
        discarded: usize,
    },
    /// The underlying read timed out before a complete frame arrived.
    /// `mid_frame` distinguishes an idle keep-alive connection (no bytes
    /// outstanding) from a stalled partial frame.
    TimedOut {
        /// True when a partial frame is buffered (or being discarded).
        mid_frame: bool,
    },
    /// The current frame has been in flight longer than the caller's frame
    /// timeout: a byte-dribbling or stalled client. The connection should be
    /// shed with a typed error.
    SlowFrame {
        /// Bytes of the stalled partial frame received so far.
        partial: usize,
    },
    /// The peer closed mid-frame; the partial bytes are dropped. The next
    /// call reports [`Frame::Eof`].
    Truncated {
        /// Bytes of the incomplete frame that were discarded.
        partial: usize,
    },
    /// Any other transport error.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { discarded } => write!(
                f,
                "frame exceeds the {MAX_FRAME_BYTES}-byte limit ({discarded} bytes discarded)"
            ),
            FrameError::TimedOut { mid_frame } => {
                write!(f, "read timed out (mid_frame: {mid_frame})")
            }
            FrameError::SlowFrame { partial } => {
                write!(f, "frame stalled after {partial} bytes")
            }
            FrameError::Truncated { partial } => {
                write!(f, "peer closed mid-frame ({partial} bytes dropped)")
            }
            FrameError::Io(kind) => write!(f, "transport error: {kind}"),
        }
    }
}

/// A line framer over an arbitrary `Read` that survives timeouts, enforces
/// the size cap with resynchronization, and tracks frame age for slow-client
/// shedding.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    /// Bytes of the current (incomplete) frame.
    buf: Vec<u8>,
    /// Prefix of `buf` already scanned for a newline.
    scanned: usize,
    /// When > 0, the reader is discarding an oversized frame and holds the
    /// count of bytes dropped so far.
    discarding: usize,
    /// Instant the first byte of the current frame arrived.
    frame_started: Option<Instant>,
    max_frame: usize,
    /// Set once EOF is observed so follow-up calls return [`Frame::Eof`].
    eof: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with the default [`MAX_FRAME_BYTES`] cap.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_max_frame(inner, MAX_FRAME_BYTES)
    }

    /// Wraps `inner` with an explicit frame cap (min 1).
    pub fn with_max_frame(inner: R, max_frame: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            discarding: 0,
            frame_started: None,
            max_frame: max_frame.max(1),
            eof: false,
        }
    }

    /// How long the current partial frame has been in flight (`None` when
    /// no frame is outstanding).
    pub fn frame_age(&self) -> Option<Duration> {
        self.frame_started.map(|t| t.elapsed())
    }

    /// Bytes of the current partial frame (discarded bytes count while an
    /// oversized frame is being skipped).
    pub fn partial_len(&self) -> usize {
        self.discarding + self.buf.len()
    }

    /// Reads the next frame.
    ///
    /// `frame_timeout` bounds how long one frame may stay in flight: when a
    /// partial frame is older, the call fails with [`FrameError::SlowFrame`]
    /// even if bytes are still trickling in — that is the slow-loris guard.
    /// A `None` timeout never sheds.
    ///
    /// # Errors
    ///
    /// See [`FrameError`]. After [`FrameError::Oversized`] the reader is
    /// resynchronized and can keep framing; after
    /// [`FrameError::TimedOut`] the partial frame is preserved and the call
    /// can simply be repeated.
    pub fn read_frame(&mut self, frame_timeout: Option<Duration>) -> Result<Frame, FrameError> {
        loop {
            // A newline already buffered completes a frame immediately.
            if let Some(pos) = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| p + self.scanned)
            {
                let drained = pos + 1;
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                self.scanned = 0;
                // Bytes past the newline are the *next* frame, and its clock
                // starts now — clearing it outright would leave a dangling
                // partial that the slow-frame budget can never shed.
                self.frame_started = if self.buf.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                line.pop(); // '\n'
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if self.discarding > 0 {
                    let discarded = self.discarding + drained;
                    self.discarding = 0;
                    return Err(FrameError::Oversized { discarded });
                }
                // The cap applies even when the whole oversized line landed
                // in one read: a complete-but-too-long frame is discarded,
                // and the stream is already in sync at the next byte.
                if line.len() > self.max_frame {
                    return Err(FrameError::Oversized { discarded: drained });
                }
                return Ok(Frame::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scanned = self.buf.len();
            if self.eof {
                return Ok(Frame::Eof);
            }
            // Over the cap with no newline yet: flip to discard mode. The
            // buffered prefix is dropped; scanning continues on fresh bytes
            // until the terminator restores sync.
            if self.discarding == 0 && self.buf.len() > self.max_frame {
                self.discarding = self.buf.len();
                self.buf.clear();
                self.scanned = 0;
            }
            // Shed a frame that has been dribbling longer than the budget.
            if let (Some(timeout), Some(started)) = (frame_timeout, self.frame_started) {
                if started.elapsed() > timeout {
                    let partial = self.partial_len();
                    self.reset_frame();
                    return Err(FrameError::SlowFrame { partial });
                }
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    if self.discarding > 0 {
                        let discarded = self.discarding;
                        self.discarding = 0;
                        self.frame_started = None;
                        return Err(FrameError::Oversized { discarded });
                    }
                    if self.buf.is_empty() {
                        return Ok(Frame::Eof);
                    }
                    let partial = self.buf.len();
                    self.reset_frame();
                    return Err(FrameError::Truncated { partial });
                }
                Ok(n) => {
                    if self.frame_started.is_none() {
                        self.frame_started = Some(Instant::now());
                    }
                    if self.discarding > 0 {
                        // Count dropped bytes but only buffer past the next
                        // newline (found by the scan at loop top if present).
                        match chunk[..n].iter().position(|&b| b == b'\n') {
                            Some(i) => {
                                self.discarding += i + 1;
                                let discarded = self.discarding;
                                self.discarding = 0;
                                self.buf.extend_from_slice(&chunk[i + 1..n]);
                                self.scanned = 0;
                                // Same next-frame clock rule as the drain
                                // above: resync bytes start a fresh frame.
                                self.frame_started = if self.buf.is_empty() {
                                    None
                                } else {
                                    Some(Instant::now())
                                };
                                return Err(FrameError::Oversized { discarded });
                            }
                            None => self.discarding += n,
                        }
                    } else {
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(FrameError::TimedOut {
                        mid_frame: self.partial_len() > 0,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.reset_frame();
                    return Err(FrameError::Io(e.kind()));
                }
            }
        }
    }

    fn reset_frame(&mut self) {
        self.buf.clear();
        self.scanned = 0;
        self.discarding = 0;
        self.frame_started = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frames(input: &[u8], max: usize) -> Vec<Result<Frame, FrameError>> {
        let mut r = FrameReader::with_max_frame(Cursor::new(input.to_vec()), max);
        let mut out = Vec::new();
        loop {
            let f = r.read_frame(None);
            let eof = matches!(f, Ok(Frame::Eof));
            out.push(f);
            if eof {
                break;
            }
        }
        out
    }

    #[test]
    fn whole_lines_frame_in_order() {
        let out = frames(b"alpha\nbeta\r\ngamma\n", 64);
        assert_eq!(
            out,
            vec![
                Ok(Frame::Line("alpha".into())),
                Ok(Frame::Line("beta".into())),
                Ok(Frame::Line("gamma".into())),
                Ok(Frame::Eof),
            ]
        );
    }

    #[test]
    fn oversized_frames_resynchronize_at_the_next_newline() {
        let mut input = vec![b'x'; 100];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let out = frames(&input, 16);
        assert_eq!(
            out,
            vec![
                Err(FrameError::Oversized { discarded: 101 }),
                Ok(Frame::Line("ok".into())),
                Ok(Frame::Eof),
            ]
        );
    }

    #[test]
    fn oversized_frame_at_eof_reports_then_ends() {
        let out = frames(&[b'x'; 100], 16);
        assert_eq!(
            out,
            vec![
                Err(FrameError::Oversized { discarded: 100 }),
                Ok(Frame::Eof)
            ]
        );
    }

    #[test]
    fn truncated_frames_are_typed_then_eof() {
        let out = frames(b"good\npartial", 64);
        assert_eq!(
            out,
            vec![
                Ok(Frame::Line("good".into())),
                Err(FrameError::Truncated { partial: 7 }),
                Ok(Frame::Eof),
            ]
        );
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let out = frames(b"\xff\xfe{bad}\nok\n", 64);
        assert!(matches!(&out[0], Ok(Frame::Line(s)) if s.contains("{bad}")));
        assert_eq!(out[1], Ok(Frame::Line("ok".into())));
    }

    /// A reader that yields WouldBlock between single-byte reads, emulating
    /// a socket with a read timeout under a dribbling client.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        turn: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            self.turn = !self.turn;
            if self.turn {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn partial_frames_survive_timeouts() {
        let mut r = FrameReader::with_max_frame(
            Dribble {
                data: b"hi\n".to_vec(),
                pos: 0,
                turn: false,
            },
            64,
        );
        let mut timeouts = 0;
        loop {
            match r.read_frame(None) {
                Ok(Frame::Line(s)) => {
                    assert_eq!(s, "hi");
                    break;
                }
                Err(FrameError::TimedOut { .. }) => timeouts += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(timeouts > 0, "the dribble must have ticked");
    }

    #[test]
    fn slow_frames_are_shed_once_over_budget() {
        // The dribble never finishes a line; a zero frame budget sheds it on
        // the first mid-frame wait.
        let mut r = FrameReader::with_max_frame(
            Dribble {
                data: b"never-terminated".to_vec(),
                pos: 0,
                turn: false,
            },
            64,
        );
        let shed = loop {
            match r.read_frame(Some(Duration::ZERO)) {
                Err(FrameError::SlowFrame { partial }) => break partial,
                Err(FrameError::TimedOut { .. }) | Ok(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        };
        assert!(shed > 0, "partial bytes were counted");
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;

    struct BurstThenSilent {
        data: Vec<u8>,
        sent: bool,
    }
    impl Read for BurstThenSilent {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.sent {
                self.sent = true;
                let n = self.data.len().min(buf.len());
                buf[..n].copy_from_slice(&self.data[..n]);
                return Ok(n);
            }
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"))
        }
    }

    #[test]
    fn trailing_partial_after_complete_line_is_shed() {
        let mut r = FrameReader::with_max_frame(
            BurstThenSilent {
                data: b"req1\npartial".to_vec(),
                sent: false,
            },
            64,
        );
        assert_eq!(
            r.read_frame(Some(Duration::ZERO)).unwrap(),
            Frame::Line("req1".into())
        );
        // The partial second frame arrived in the same burst; with a ZERO
        // frame budget it must be shed as SlowFrame, not spin TimedOut.
        let mut saw_slow = false;
        for _ in 0..5 {
            match r.read_frame(Some(Duration::ZERO)) {
                Err(FrameError::SlowFrame { .. }) => {
                    saw_slow = true;
                    break;
                }
                Err(FrameError::TimedOut { mid_frame }) => assert!(mid_frame),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            saw_slow,
            "dangling partial frame never shed: frame_started was cleared"
        );
    }
}
