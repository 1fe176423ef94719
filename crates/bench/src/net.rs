//! Length-prefixed framing for the remote dispatch layer.
//!
//! The stdin/stdout worker protocol ([`crate::worker`]) frames by
//! newline because pipes deliver whole writes in order and die with
//! their process. TCP guarantees neither: reads time out mid-frame,
//! peers vanish mid-byte, and a hostile (or merely broken) peer can
//! claim an absurd length. So the wire carries `[u32 big-endian
//! length][flat-JSON payload]` frames with the same 64 KiB cap the
//! line protocol enforces, and [`FrameReader`] keeps partial state
//! across read timeouts: a deadline firing mid-frame is an [`Recv::
//! Idle`] tick, never a desynchronized stream.
//!
//! Every malformation — oversized length prefix, truncated stream,
//! non-UTF-8 payload — is a typed [`NfpError::ProtocolViolation`];
//! transport failures are typed [`NfpError::Net`]. Nothing here
//! panics, and nothing blocks past the socket's configured timeout.

use crate::flatjson::{esc, parse_flat, Obj};
use crate::worker::WorkerPreset;
use nfp_core::NfpError;
use std::io::{ErrorKind, Read, Write};

/// Maximum frame payload, matching the line protocol's `MAX_LINE`: no
/// legitimate hello, record, or report chunk comes close, and anything
/// larger is a protocol violation rather than an allocation.
pub(crate) const MAX_FRAME: usize = 64 * 1024;

/// Shorthand for the typed violation error.
fn violation(detail: impl Into<String>) -> NfpError {
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

/// Writes one frame (length prefix + payload) and flushes. An
/// oversized payload is refused before a byte hits the wire — the
/// receiver would only reject it anyway.
pub(crate) fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("refusing to send oversized frame ({} bytes)", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Maps a frame-write failure to a typed transport error.
pub(crate) fn send_err(addr: &str, e: std::io::Error) -> NfpError {
    NfpError::Net {
        addr: addr.to_string(),
        detail: format!("write failed: {e}"),
    }
}

// ---------------------------------------------------------------------
// Control frames specific to the TCP layer. Leases reuse the worker
// hello frame verbatim; records and fins reuse the journal line
// renderings; the rest of the conversation is below.
// ---------------------------------------------------------------------

/// Protocol version of the TCP control frames (join/submit). Lease
/// frames carry the worker protocol's own version. v2: submits and
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

/// Bidirectional liveness tick, shared with the line protocol.
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
}
