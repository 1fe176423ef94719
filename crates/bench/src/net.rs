//! Length-prefixed framing for every worker, coordinator and client
//! stream, over TCP and over a worker process's pipes alike, and the
//! one lease driver both campaign pools use.
//!
//! Reads time out mid-frame, peers vanish mid-byte, and a hostile (or
//! merely broken) peer can claim an absurd length. So the wire carries
//! `[u32 big-endian length][flat-JSON payload]` frames capped at 64 KiB,
//! and [`FrameReader`] keeps partial state across read timeouts: a
//! deadline firing mid-frame is an [`Recv::Idle`] tick, never a
//! desynchronized stream.
//!
//! Every malformation — oversized length prefix, truncated stream,
//! non-UTF-8 payload — is a typed [`NfpError::ProtocolViolation`];
//! transport failures are typed [`NfpError::Net`]. Nothing here
//! panics, and nothing blocks past the socket's configured timeout.
//!
//! A [`Link`] carries one conversation's frames over a socket or a
//! child's pipes, with a liveness clock (a beat and a silence limit,
//! set per conversation) ticking every [`READ_TICK`]. [`drive_lease`]
//! runs one lease over a link under the one liveness rule of DESIGN.md
//! §11: silence ends the lease when it outlasts the link's limit,
//! counted from the later of the hello and the last frame, and so does
//! a deadline counted from the hello. Every way a conversation breaks
//! is a [`Failure`] typed by its [`HarnessCause`].

use crate::flatjson::{esc, parse_flat, Obj};
use crate::journal::{LeaseCheck, LeaseRecords, Step};
use crate::worker::{render_hello, WorkerHello, WorkerPreset};
use nfp_core::{HarnessCause, NfpError};
use nfp_sim::Fault;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Maximum frame payload: no legitimate hello, record, or report chunk
/// comes close, and anything larger is a protocol violation rather
/// than an allocation.
pub(crate) const MAX_FRAME: usize = 64 * 1024;

/// Shorthand for the typed violation error.
pub(crate) fn violation(detail: impl Into<String>) -> NfpError {
    NfpError::ProtocolViolation {
        detail: detail.into(),
    }
}

/// One poll of a [`FrameReader`].
#[derive(Debug)]
pub(crate) enum Recv {
    /// A complete frame payload.
    Frame(String),
    /// The read deadline fired; partial frame state (if any) is
    /// preserved for the next poll.
    Idle,
    /// Clean end-of-stream on a frame boundary.
    Eof,
}

/// Incremental frame decoder: survives read timeouts mid-frame and
/// converts every way a stream can lie into a typed error.
pub(crate) struct FrameReader {
    /// Peer label for [`NfpError::Net`] messages.
    peer: String,
    hdr: [u8; 4],
    hdr_got: usize,
    need: usize,
    payload: Vec<u8>,
}

impl FrameReader {
    pub(crate) fn new(peer: impl Into<String>) -> Self {
        FrameReader {
            peer: peer.into(),
            hdr: [0; 4],
            hdr_got: 0,
            need: 0,
            payload: Vec::new(),
        }
    }

    /// Polls the stream once. With a read timeout configured on `r`
    /// this returns within one timeout window: a frame, an idle tick,
    /// a clean EOF, or a typed error.
    pub(crate) fn recv(&mut self, r: &mut impl Read) -> Result<Recv, NfpError> {
        loop {
            if self.hdr_got < 4 {
                match r.read(&mut self.hdr[self.hdr_got..]) {
                    Ok(0) => {
                        return if self.hdr_got == 0 {
                            Ok(Recv::Eof)
                        } else {
                            Err(violation(format!(
                                "truncated frame: stream from {} ended inside a length prefix",
                                self.peer
                            )))
                        }
                    }
                    Ok(n) => {
                        self.hdr_got += n;
                        if self.hdr_got == 4 {
                            let len = u32::from_be_bytes(self.hdr) as usize;
                            if len > MAX_FRAME {
                                return Err(violation(format!(
                                    "oversized length prefix from {}: claims {len} bytes \
                                     (cap {MAX_FRAME})",
                                    self.peer
                                )));
                            }
                            self.need = len;
                            self.payload.clear();
                        }
                        continue;
                    }
                    Err(e) => return self.io(e),
                }
            }
            if self.payload.len() < self.need {
                let mut chunk = [0u8; 4096];
                let want = (self.need - self.payload.len()).min(chunk.len());
                match r.read(&mut chunk[..want]) {
                    Ok(0) => {
                        return Err(violation(format!(
                            "truncated frame: stream from {} ended after {} of {} payload bytes",
                            self.peer,
                            self.payload.len(),
                            self.need
                        )))
                    }
                    Ok(n) => {
                        self.payload.extend_from_slice(&chunk[..n]);
                        continue;
                    }
                    Err(e) => return self.io(e),
                }
            }
            let bytes = std::mem::take(&mut self.payload);
            self.hdr_got = 0;
            self.need = 0;
            let text = String::from_utf8(bytes).map_err(|_| {
                violation(format!(
                    "frame payload from {} is not valid UTF-8",
                    self.peer
                ))
            })?;
            return Ok(Recv::Frame(text));
        }
    }

    fn io(&self, e: std::io::Error) -> Result<Recv, NfpError> {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => Ok(Recv::Idle),
            _ => Err(NfpError::Net {
                addr: self.peer.clone(),
                detail: format!("read failed: {e}"),
            }),
        }
    }
}

/// Writes one frame (length prefix + payload) in a single write and
/// flushes, so a writer killed mid-stream leaves whole frames behind. An
/// oversized payload is refused before a byte hits the wire — the
/// receiver would only reject it anyway.
pub(crate) fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("refusing to send oversized frame ({} bytes)", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

// ---------------------------------------------------------------------
// Control frames. Leases are the worker hello frame; records and fins
// reuse the journal line renderings; the rest of the conversation is
// below.
// ---------------------------------------------------------------------

/// Protocol version of the control frames (join/submit). Lease frames
/// carry the worker hello's own version. v2: submits and
/// leases no longer carry `dispatch`, so a v1 peer, whose parsers
/// require it, is refused at the join or submit instead of failing
/// partway through a lease.
pub(crate) const NET_VERSION: u64 = 2;

/// A worker announcing itself to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JoinFrame {
    /// Workload registry the worker will build kernels from.
    pub(crate) preset: WorkerPreset,
    /// How many times this worker has reconnected so far (cumulative,
    /// so the coordinator's counter survives coordinator-side drops).
    pub(crate) reconnects: u64,
    /// Stable worker identity across reconnects (pid + session salt).
    /// The audit tier keys its blacklist on this, not on the peer
    /// address: loopback test fleets share one address, and a NAT'd
    /// fleet shares one address in production too. Zero means "the
    /// peer sent none" (a pre-audit worker or a hand-crafted frame)
    /// and is never blacklisted — such a peer just gets no parole
    /// credit either.
    pub(crate) wid: u64,
}

pub(crate) fn render_join(join: &JoinFrame) -> String {
    format!(
        "{{\"v\":{NET_VERSION},\"kind\":\"join\",\"preset\":\"{}\",\"reconnects\":{},\"wid\":{}}}",
        esc(join.preset.name()),
        join.reconnects,
        join.wid
    )
}

pub(crate) fn parse_join(line: &str) -> Result<JoinFrame, NfpError> {
    let obj = Obj(parse_flat(line).ok_or_else(|| violation("unparseable join frame"))?);
    match obj.u64("v") {
        Some(NET_VERSION) => {}
        got => {
            return Err(violation(format!(
                "join version mismatch: peer speaks {got:?}, this coordinator speaks \
                 v{NET_VERSION}"
            )))
        }
    }
    if obj.str("kind") != Some("join") {
        return Err(violation("frame is not a join"));
    }
    let preset = obj
        .str("preset")
        .and_then(WorkerPreset::from_name)
        .ok_or_else(|| violation("join names an unknown preset"))?;
    let reconnects = obj
        .u64("reconnects")
        .ok_or_else(|| violation("join lacks a reconnect count"))?;
    // Leniently default: joins predating the audit tier carry no wid.
    let wid = obj.u64("wid").unwrap_or(0);
    Ok(JoinFrame {
        preset,
        reconnects,
        wid,
    })
}

/// Coordinator → peer/client: "shutting down / lease stream over".
pub(crate) const BYE_FRAME: &str = "{\"kind\":\"bye\"}";

/// Bidirectional liveness tick.
pub(crate) const HB_FRAME: &str = "{\"kind\":\"hb\"}";

/// Coordinator → client: a progress/footer line for the client's
/// stderr. The stdout report stays byte-stable; notes carry everything
/// else.
pub(crate) fn render_note(text: &str) -> String {
    format!("{{\"kind\":\"note\",\"text\":\"{}\"}}", esc(text))
}

/// Coordinator → client: one chunk of the final report (chunked to
/// stay under [`MAX_FRAME`]), terminated by [`END_FRAME`].
pub(crate) fn render_report_chunk(chunk: &str) -> String {
    format!("{{\"kind\":\"report\",\"chunk\":\"{}\"}}", esc(chunk))
}

/// Coordinator → client: the report stream is complete.
pub(crate) const END_FRAME: &str = "{\"kind\":\"end\"}";

/// Coordinator → client: admission control refused the submission.
pub(crate) fn render_reject(client: &str, reason: &str) -> String {
    format!(
        "{{\"kind\":\"reject\",\"client\":\"{}\",\"reason\":\"{}\"}}",
        esc(client),
        esc(reason)
    )
}

/// The `kind` a frame names, if it parses.
pub(crate) fn frame_kind(frame: &str) -> Option<String> {
    Obj(parse_flat(frame)?).str("kind").map(str::to_string)
}

// ---------------------------------------------------------------------
// Links and the lease driver.
// ---------------------------------------------------------------------

/// Read timeout per poll: every conversation's tick.
pub(crate) const READ_TICK: Duration = Duration::from_millis(50);

/// Write timeout: a peer that cannot drain a few hundred bytes in this
/// long is as good as gone.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Readies a connected socket for framed conversation: no Nagle delay,
/// reads that return within a [`READ_TICK`], writes bounded by
/// [`WRITE_TIMEOUT`]. Every socket of the crate is set up here.
pub(crate) fn tick_socket(stream: &TcpStream) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))
}

/// How long a worker that heartbeats every `heartbeat` may go silent:
/// ten missed beats, and never less than two seconds.
pub(crate) fn worker_silence(heartbeat: Duration) -> Duration {
    (heartbeat * 10).max(Duration::from_secs(2))
}

/// Why a conversation or a lease broke, in the quarantine vocabulary:
/// silence is a heartbeat timeout, an overrun lease a deadline, a
/// refused frame a protocol violation, and a stream that ended or
/// failed a dead worker (whose signal only the process pool can tell).
#[derive(Debug)]
pub(crate) struct Failure {
    pub(crate) cause: HarnessCause,
    pub(crate) detail: String,
}

impl Failure {
    pub(crate) fn new(cause: HarnessCause, detail: impl Into<String>) -> Failure {
        Failure {
            cause,
            detail: detail.into(),
        }
    }

    /// A stream that ended or failed.
    pub(crate) fn lost(detail: impl Into<String>) -> Failure {
        Failure::new(HarnessCause::WorkerKilled { signal: None }, detail)
    }
}

impl From<NfpError> for Failure {
    fn from(e: NfpError) -> Failure {
        match e {
            NfpError::ProtocolViolation { detail } => {
                Failure::new(HarnessCause::ProtocolViolation, detail)
            }
            NfpError::Net { detail, .. } => Failure::lost(detail),
            e => Failure::lost(e.to_string()),
        }
    }
}

/// One conversation's frames over a socket or a child's pipes, with its
/// liveness clock.
pub(crate) struct Link {
    /// One read of at most a [`READ_TICK`].
    recv: Box<dyn FnMut() -> Result<Recv, NfpError> + Send>,
    /// Where this side's frames go.
    tx: Box<dyn Write + Send>,
    /// Heartbeat interval towards the other side; `None` sends none.
    beat: Option<Duration>,
    /// How long the other side may say nothing; `None` waits for ever.
    silence: Option<Duration>,
    /// When the other side last sent a frame (or the clock restarted).
    heard: Instant,
    /// When this side last sent a frame.
    sent: Instant,
}

impl Link {
    fn over(
        recv: impl FnMut() -> Result<Recv, NfpError> + Send + 'static,
        tx: impl Write + Send + 'static,
    ) -> Link {
        let now = Instant::now();
        Link {
            recv: Box::new(recv),
            tx: Box::new(tx),
            beat: None,
            silence: None,
            heard: now,
            sent: now,
        }
    }

    /// A link over a connected socket, readied by [`tick_socket`].
    pub(crate) fn tcp(stream: TcpStream, peer: impl Into<String>) -> std::io::Result<Link> {
        tick_socket(&stream)?;
        let (mut from, mut reader) = (stream.try_clone()?, FrameReader::new(peer));
        Ok(Link::over(move || reader.recv(&mut from), stream))
    }

    /// A link over a child's pipes. Blocking pipe reads carry no
    /// timeout, so a detached thread frames `from` into a channel: it
    /// exits at the end of the stream, after a framing error (which it
    /// passes on), or once the link is gone.
    pub(crate) fn pipes(
        mut from: impl Read + Send + 'static,
        to: impl Write + Send + 'static,
        peer: &str,
    ) -> Link {
        let (tx, rx) = mpsc::channel();
        let mut reader = FrameReader::new(peer);
        std::thread::spawn(move || loop {
            let got = reader.recv(&mut from);
            let more = matches!(got, Ok(Recv::Frame(_) | Recv::Idle));
            if tx.send(got).is_err() || !more {
                return;
            }
        });
        Link::over(move || channel_recv(&rx), to)
    }

    /// Sets the conversation's beat and silence limit, and restarts the
    /// clock.
    pub(crate) fn pace(&mut self, beat: Option<Duration>, silence: Option<Duration>) {
        self.beat = beat;
        self.silence = silence;
        self.heard = Instant::now();
        self.sent = self.heard;
    }

    /// Sends one frame; any frame stands in for a due heartbeat.
    pub(crate) fn send(&mut self, frame: &str) -> std::io::Result<()> {
        write_frame(&mut self.tx, frame)?;
        self.sent = Instant::now();
        Ok(())
    }

    /// One tick: a heartbeat when one is due, then one read of at most
    /// [`READ_TICK`]. `Ok(None)` is a quiet tick within the silence
    /// limit.
    pub(crate) fn poll(&mut self) -> Result<Option<String>, Failure> {
        if self.beat.is_some_and(|beat| self.sent.elapsed() >= beat) {
            self.send(HB_FRAME)
                .map_err(|e| Failure::lost(format!("heartbeat write failed: {e}")))?;
        }
        match (self.recv)()? {
            Recv::Frame(frame) => {
                self.heard = Instant::now();
                Ok(Some(frame))
            }
            Recv::Idle => match self.silence {
                Some(limit) if self.heard.elapsed() > limit => Err(Failure::new(
                    HarnessCause::HeartbeatTimeout,
                    format!("silent for {}ms", self.heard.elapsed().as_millis()),
                )),
                _ => Ok(None),
            },
            Recv::Eof => Err(Failure::lost("the stream ended")),
        }
    }

    /// Waits for the next frame; `Ok(None)` once `stop` is raised. A
    /// stop flag publishes no data, so it is read with a relaxed load,
    /// here and in [`drive_lease`].
    pub(crate) fn next(&mut self, stop: &AtomicBool) -> Result<Option<String>, Failure> {
        while !stop.load(Ordering::Relaxed) {
            if let Some(frame) = self.poll()? {
                return Ok(Some(frame));
            }
        }
        Ok(None)
    }

    /// One tick of a conversation in which the other side owes nothing
    /// but heartbeats: any other frame is a violation.
    pub(crate) fn idle(&mut self) -> Result<(), Failure> {
        match self.poll()?.map(|frame| frame_kind(&frame)) {
            Some(kind) if kind.as_deref() != Some("hb") => Err(Failure::new(
                HarnessCause::ProtocolViolation,
                format!("unexpected frame {kind:?} while idle"),
            )),
            _ => Ok(()),
        }
    }
}

/// One read of frames a reader thread made: what it read, an idle tick
/// after a [`READ_TICK`] without any, or the end once the thread is gone.
fn channel_recv(rx: &mpsc::Receiver<Result<Recv, NfpError>>) -> Result<Recv, NfpError> {
    match rx.recv_timeout(READ_TICK) {
        Ok(got) => got,
        Err(mpsc::RecvTimeoutError::Timeout) => Ok(Recv::Idle),
        Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Recv::Eof),
    }
}

/// How a driven lease ended, short of a [`Failure`].
#[derive(Debug)]
pub(crate) enum LeaseEnd {
    /// The fin sealed the range: its checked records, in plan order.
    Fin(LeaseRecords),
    /// `stop` was raised mid-lease.
    Stopped,
    /// The worker reported a fatal error, in its own words.
    Error(String),
}

/// Runs one lease over `link`: sends `hello`, then feeds every frame
/// the worker sends to the lease checker until a fin seals the range.
/// The link's silence limit counts from the later of the hello and the
/// worker's last frame; `deadline` counts from the hello.
pub(crate) fn drive_lease(
    link: &mut Link,
    hello: &WorkerHello,
    faults: &[Fault],
    deadline: Option<Duration>,
    stop: &AtomicBool,
) -> Result<LeaseEnd, Failure> {
    link.send(&render_hello(hello))
        .map_err(|e| Failure::lost(format!("lease write failed: {e}")))?;
    let leased = link.sent;
    link.heard = leased;
    let mut check = LeaseCheck::new(&hello.header, faults);
    while !stop.load(Ordering::Relaxed) {
        if let Some(limit) = deadline.filter(|&d| leased.elapsed() >= d) {
            return Err(Failure::new(
                HarnessCause::DeadlineExceeded,
                format!(
                    "lease still open after its {}ms deadline",
                    limit.as_millis()
                ),
            ));
        }
        let Some(frame) = link.poll()? else { continue };
        match check.feed(&frame)? {
            Step::More | Step::Ready => {}
            Step::Fin(records) => return Ok(LeaseEnd::Fin(records)),
            Step::Error(detail) => return Ok(LeaseEnd::Error(detail)),
        }
    }
    Ok(LeaseEnd::Stopped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that yields its scripted segments one `read` at a
    /// time: `Ok` bytes, a `WouldBlock` tick, or end-of-script EOF.
    struct Script {
        segs: Vec<Option<Vec<u8>>>,
        at: usize,
    }

    impl Script {
        fn new(segs: Vec<Option<Vec<u8>>>) -> Self {
            Script { segs, at: 0 }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.segs.get_mut(self.at) {
                None => Ok(0),
                Some(None) => {
                    self.at += 1;
                    Err(std::io::Error::new(ErrorKind::WouldBlock, "tick"))
                }
                Some(Some(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    bytes.drain(..n);
                    if bytes.is_empty() {
                        self.at += 1;
                    }
                    Ok(n)
                }
            }
        }
    }

    fn framed(payload: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_roundtrip_across_split_reads_and_timeouts() {
        // One frame delivered in four fragments with idle ticks
        // between them: the reader must hold partial state across
        // every boundary, including mid-length-prefix.
        let bytes = framed("{\"kind\":\"hb\"}");
        let segs = vec![
            Some(bytes[..2].to_vec()), // half the length prefix
            None,                      // timeout mid-prefix
            Some(bytes[2..5].to_vec()),
            None, // timeout mid-payload
            Some(bytes[5..].to_vec()),
        ];
        let mut reader = FrameReader::new("test");
        let mut stream = Script::new(segs);
        let mut idles = 0;
        loop {
            match reader.recv(&mut stream).unwrap() {
                Recv::Idle => idles += 1,
                Recv::Frame(f) => {
                    assert_eq!(f, "{\"kind\":\"hb\"}");
                    break;
                }
                Recv::Eof => panic!("EOF before the frame completed"),
            }
        }
        assert_eq!(idles, 2);
        // And the stream ends cleanly on the frame boundary.
        assert!(matches!(reader.recv(&mut stream).unwrap(), Recv::Eof));
    }

    #[test]
    fn oversized_length_prefix_is_a_typed_violation() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"doesn't matter");
        let mut reader = FrameReader::new("test");
        let err = reader
            .recv(&mut Script::new(vec![Some(bytes)]))
            .unwrap_err();
        match err {
            NfpError::ProtocolViolation { detail } => {
                assert!(detail.contains("oversized"), "{detail}")
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn truncation_is_a_typed_violation_not_a_hang() {
        // Mid-prefix truncation...
        let mut reader = FrameReader::new("test");
        let err = reader
            .recv(&mut Script::new(vec![Some(vec![0x00, 0x00])]))
            .unwrap_err();
        assert!(
            matches!(&err, NfpError::ProtocolViolation { detail } if detail.contains("length prefix")),
            "{err}"
        );
        // ...and mid-payload truncation (a torn TCP stream).
        let bytes = framed("{\"kind\":\"bye\"}");
        let torn = bytes[..bytes.len() - 3].to_vec();
        let mut reader = FrameReader::new("test");
        let err = reader.recv(&mut Script::new(vec![Some(torn)])).unwrap_err();
        assert!(
            matches!(&err, NfpError::ProtocolViolation { detail } if detail.contains("truncated")),
            "{err}"
        );
    }

    #[test]
    fn non_utf8_payload_is_a_typed_violation() {
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut reader = FrameReader::new("test");
        let err = reader
            .recv(&mut Script::new(vec![Some(bytes)]))
            .unwrap_err();
        assert!(
            matches!(&err, NfpError::ProtocolViolation { detail } if detail.contains("UTF-8")),
            "{err}"
        );
    }

    #[test]
    fn oversized_payload_is_refused_before_the_wire() {
        let mut sink = Vec::new();
        let big = "x".repeat(MAX_FRAME + 1);
        assert!(write_frame(&mut sink, &big).is_err());
        assert!(sink.is_empty(), "bytes escaped onto the wire");
    }

    #[test]
    fn join_frames_roundtrip_and_version_mismatch_is_typed() {
        let join = JoinFrame {
            preset: WorkerPreset::Quick,
            reconnects: 3,
            wid: 0x8140_3000_0001,
        };
        assert_eq!(parse_join(&render_join(&join)).unwrap(), join);
        // v1 is the version whose leases still carried `dispatch`.
        for old in [1, 99] {
            let bad =
                format!("{{\"v\":{old},\"kind\":\"join\",\"preset\":\"quick\",\"reconnects\":0}}");
            let err = parse_join(&bad).unwrap_err();
            assert!(
                matches!(&err, NfpError::ProtocolViolation { detail } if detail.contains("version mismatch")),
                "v{old}: {err}"
            );
        }
        // Garbage and wrong-kind frames are violations, not panics.
        assert!(parse_join("not json").is_err());
        assert!(parse_join(&format!("{{\"v\":{NET_VERSION},\"kind\":\"hb\"}}")).is_err());
    }

    #[test]
    fn join_without_a_wid_defaults_to_the_unattributable_zero() {
        // Hand-crafted joins may carry no wid; they parse fine and land
        // as wid 0 (which the blacklist never targets).
        let old = format!(
            "{{\"v\":{NET_VERSION},\"kind\":\"join\",\"preset\":\"quick\",\"reconnects\":2}}"
        );
        let join = parse_join(&old).unwrap();
        assert_eq!(join.wid, 0);
        assert_eq!(join.reconnects, 2);
    }

    #[test]
    fn client_frames_escape_their_payloads() {
        let note = render_note("shard 2 re-dispatched: \"peer 1\" died\n");
        let obj = Obj(parse_flat(&note).unwrap());
        assert_eq!(
            obj.str("text"),
            Some("shard 2 re-dispatched: \"peer 1\" died\n")
        );
        let chunk = render_report_chunk("line with \"quotes\"\nand newline");
        let obj = Obj(parse_flat(&chunk).unwrap());
        assert_eq!(obj.str("chunk"), Some("line with \"quotes\"\nand newline"));
        let reject = render_reject("tenant-a", "queue full");
        let obj = Obj(parse_flat(&reject).unwrap());
        assert_eq!(obj.str("client"), Some("tenant-a"));
        assert_eq!(obj.str("reason"), Some("queue full"));
    }

    // -- the lease driver ---------------------------------------------

    use crate::campaign::InjectionRecord;
    use crate::evaluation::Mode;
    use crate::identity::Identity;
    use crate::journal::{fin_line, record_line, FinRecord, JournalHeader};
    use crate::worker::{render_error, render_ready};
    use nfp_core::Outcome;
    use nfp_sim::FaultTarget;
    use std::sync::{Arc, Mutex};

    /// A writer whose bytes a test reads back as frames.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        fn frames(&self) -> Vec<String> {
            let bytes = self.0.lock().unwrap().clone();
            let (mut reader, mut stream) = (FrameReader::new("sink"), &bytes[..]);
            std::iter::from_fn(|| match reader.recv(&mut stream) {
                Ok(Recv::Frame(frame)) => Some(frame),
                _ => None,
            })
            .collect()
        }
    }

    /// A link whose frames come from the returned channel and whose
    /// writes land in the returned sink; limits in milliseconds.
    fn scripted(
        beat_ms: Option<u64>,
        silence_ms: Option<u64>,
    ) -> (Link, mpsc::Sender<Result<Recv, NfpError>>, Sink) {
        let (tx, rx) = mpsc::channel();
        let sink = Sink::default();
        let mut link = Link::over(move || channel_recv(&rx), sink.clone());
        let ms = |ms: Option<u64>| ms.map(Duration::from_millis);
        link.pace(ms(beat_ms), ms(silence_ms));
        (link, tx, sink)
    }

    fn frame(text: &str) -> Result<Recv, NfpError> {
        Ok(Recv::Frame(text.to_string()))
    }

    /// The lease `0..2` of a four-injection plan.
    fn hello() -> WorkerHello {
        WorkerHello {
            header: JournalHeader {
                id: Identity {
                    kernel: "k".to_string(),
                    mode: Mode::Float,
                    injections: 4,
                    seed: 1,
                    checkpoints: 2,
                    escalation: 2,
                    wall_ms: None,
                },
                golden_instret: 500,
                shard_index: 0,
                shard_count: 2,
                range_start: 0,
                range_end: 2,
            },
            preset: WorkerPreset::Quick,
            heartbeat_ms: 20,
            spin_at: None,
            abort_at: None,
        }
    }

    fn faults() -> Vec<Fault> {
        let fault = |i: u64| Fault {
            at: 10 + i,
            target: FaultTarget::IntReg {
                index: 1,
                bit: i as u8,
            },
        };
        (0..4).map(fault).collect()
    }

    fn record(i: usize) -> InjectionRecord {
        InjectionRecord {
            fault: faults()[i],
            category: None,
            outcome: Outcome::Masked,
        }
    }

    fn drive(link: &mut Link, deadline_ms: Option<u64>, stop: bool) -> Result<LeaseEnd, Failure> {
        let deadline = deadline_ms.map(Duration::from_millis);
        drive_lease(link, &hello(), &faults(), deadline, &AtomicBool::new(stop))
    }

    fn failure(got: Result<LeaseEnd, Failure>) -> Failure {
        got.expect_err("the lease should have failed")
    }

    #[test]
    fn a_checked_stream_returns_its_records() {
        let (mut link, tx, sink) = scripted(None, Some(1_000));
        let slots: Vec<_> = (0..2).map(|i| Some((record(i), 1))).collect();
        tx.send(frame(&render_ready(500))).unwrap();
        for i in 0..2 {
            tx.send(frame(HB_FRAME)).unwrap();
            tx.send(frame(&record_line(i, &record(i), 1))).unwrap();
        }
        tx.send(frame(&fin_line(&FinRecord::seal(0, &slots))))
            .unwrap();
        match drive(&mut link, Some(5_000), false) {
            Ok(LeaseEnd::Fin(records)) => {
                assert_eq!(records, vec![(0, record(0), 1), (1, record(1), 1)])
            }
            other => panic!("expected the range's records, got {other:?}"),
        }
        assert_eq!(sink.frames(), vec![render_hello(&hello())]);
    }

    #[test]
    fn silence_before_and_after_ready_is_a_heartbeat_timeout() {
        for ready in [false, true] {
            let (mut link, tx, _) = scripted(None, Some(100));
            if ready {
                tx.send(frame(&render_ready(500))).unwrap();
            }
            let f = failure(drive(&mut link, Some(5_000), false));
            assert_eq!(f.cause, HarnessCause::HeartbeatTimeout, "{}", f.detail);
        }
    }

    #[test]
    fn an_overrun_lease_exceeds_its_deadline_however_lively() {
        let (mut link, tx, _) = scripted(None, Some(5_000));
        // The worker beats every 10 ms until the link is gone.
        std::thread::spawn(move || {
            while tx.send(frame(HB_FRAME)).is_ok() {
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let f = failure(drive(&mut link, Some(200), false));
        assert_eq!(f.cause, HarnessCause::DeadlineExceeded, "{}", f.detail);
    }

    #[test]
    fn a_refused_record_or_a_torn_frame_is_a_protocol_violation() {
        let (mut link, tx, _) = scripted(None, Some(1_000));
        tx.send(frame(&record_line(0, &record(0), 1))).unwrap();
        let f = failure(drive(&mut link, None, false));
        assert_eq!(f.cause, HarnessCause::ProtocolViolation);
        assert!(f.detail.contains("before the ready"), "{}", f.detail);
        // A frame torn by the end of a pipe, framed by the reader thread.
        let mut torn = 64u32.to_be_bytes().to_vec();
        torn.extend_from_slice(b"{\"kind\"");
        let mut link = Link::pipes(std::io::Cursor::new(torn), Sink::default(), "torn");
        link.pace(None, Some(Duration::from_secs(1)));
        let f = failure(drive(&mut link, None, false));
        assert_eq!(f.cause, HarnessCause::ProtocolViolation);
        assert!(f.detail.contains("truncated"), "{}", f.detail);
    }

    #[test]
    fn the_end_of_the_stream_is_a_dead_worker() {
        let (mut link, tx, _) = scripted(None, Some(1_000));
        tx.send(frame(&render_ready(500))).unwrap();
        drop(tx);
        let f = failure(drive(&mut link, None, false));
        assert_eq!(f.cause, HarnessCause::WorkerKilled { signal: None });
    }

    #[test]
    fn an_error_frame_returns_the_workers_detail() {
        let (mut link, tx, _) = scripted(None, Some(1_000));
        tx.send(frame(&render_error("no such kernel"))).unwrap();
        match drive(&mut link, None, false) {
            Ok(LeaseEnd::Error(detail)) => assert_eq!(detail, "no such kernel"),
            other => panic!("expected the worker's error, got {other:?}"),
        }
    }

    #[test]
    fn a_raised_stop_returns_no_result() {
        let (mut link, _tx, _) = scripted(None, Some(1_000));
        assert!(matches!(
            drive(&mut link, None, true),
            Ok(LeaseEnd::Stopped)
        ));
    }

    #[test]
    fn beats_are_written_only_where_the_conversation_has_a_beat() {
        for beat in [Some(20), None] {
            let (mut link, _tx, sink) = scripted(beat, None);
            let f = failure(drive(&mut link, Some(300), false));
            assert_eq!(f.cause, HarnessCause::DeadlineExceeded);
            let frames = sink.frames();
            assert_eq!(frames[0], render_hello(&hello()));
            assert!(frames[1..].iter().all(|f| f == HB_FRAME), "{frames:?}");
            assert_eq!(frames.len() > 1, beat.is_some(), "{frames:?}");
        }
    }
}
