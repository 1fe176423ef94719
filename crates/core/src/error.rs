//! Estimation-error metrics (paper Eq. 3 and Table III) and the
//! pipeline-level error type.

use nfp_sim::SimError;
use std::fmt;

/// Relative estimation error `ε = (x̂ − x_meas) / x_meas` (Eq. 3).
pub fn relative_error(estimated: f64, measured: f64) -> f64 {
    (estimated - measured) / measured
}

/// Error summary over a kernel set (the two rows of Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Mean absolute relative error, `ε̄ = (1/M) Σ |ε_m|`.
    pub mean_abs: f64,
    /// Maximum absolute relative error, `ε_max = max |ε_m|`.
    pub max_abs: f64,
    /// Number of kernels M.
    pub kernels: usize,
}

impl ErrorSummary {
    /// Summarises a slice of signed relative errors; `None` for an
    /// empty slice (a summary over zero kernels is meaningless).
    pub fn from_errors(errors: &[f64]) -> Option<Self> {
        if errors.is_empty() {
            return None;
        }
        let mean_abs = errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64;
        let max_abs = errors.iter().map(|e| e.abs()).fold(0.0, f64::max);
        Some(ErrorSummary {
            mean_abs,
            max_abs,
            kernels: errors.len(),
        })
    }

    /// Summarises (estimated, measured) pairs; `None` for an empty
    /// slice.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Option<Self> {
        let errors: Vec<f64> = pairs
            .iter()
            .map(|&(est, meas)| relative_error(est, meas))
            .collect();
        Self::from_errors(&errors)
    }
}

/// Top-level error for the estimation and fault-campaign pipelines:
/// everything that can go wrong between "compile a kernel" and "report
/// a table" that is not a bug in the harness itself.
#[derive(Debug, Clone, PartialEq)]
pub enum NfpError {
    /// The simulator reported an error (trap, watchdog, bad image...).
    Sim(SimError),
    /// A kernel ran to completion but exited non-zero.
    KernelFailed {
        /// Kernel name.
        kernel: String,
        /// The kernel's exit code.
        exit_code: u32,
    },
    /// A kernel's emitted result words did not match the expected
    /// golden words.
    OutputMismatch {
        /// Kernel name.
        kernel: String,
    },
    /// A summary or report was requested over an empty input set.
    Empty {
        /// What was empty, for the message.
        what: &'static str,
    },
    /// A parallel worker died (or exited early) without delivering the
    /// result it owned.
    WorkerLost {
        /// The job the lost worker owned, e.g. `fse_img00_float` or
        /// `injections 120..160 of fse_img00_float`.
        job: String,
    },
    /// A journal — a campaign journal, a coordinator's records file or
    /// its service journal — could not be read, written, or parsed.
    Journal {
        /// Journal path, for the message.
        path: String,
        /// What went wrong (I/O or format detail).
        reason: String,
    },
    /// A campaign journal exists but was written by a different
    /// campaign: resuming from it would silently mix results.
    JournalMismatch {
        /// Journal path, for the message.
        path: String,
        /// Which binding field disagreed (kernel, seed, ...).
        field: &'static str,
        /// The value recorded in the journal header.
        journal: String,
        /// The value the resuming campaign expects.
        campaign: String,
    },
    /// A workload artefact (kernel registry entry, generated program,
    /// encoded bitstream) could not be built.
    Workload {
        /// What was being built, e.g. `hevc_movobj_lowdelay_qp32`.
        what: String,
        /// Why it failed.
        reason: String,
    },
    /// A differential calibration was degenerate: zero test-instruction
    /// count or a rank-deficient reference/test measurement pair would
    /// yield NaN/∞ specific costs.
    Calibration {
        /// Model class being calibrated.
        class: String,
        /// What made the inputs degenerate.
        reason: String,
    },
    /// A campaign worker process died from a signal (SIGKILL by the
    /// liveness watchdog, SIGSEGV/SIGABRT of its own accord, ...).
    WorkerKilled {
        /// The signal that terminated the worker, when known.
        signal: Option<i32>,
    },
    /// A campaign worker process violated the supervisor protocol:
    /// oversized or malformed frame, out-of-order record, or a
    /// version/config handshake mismatch.
    ProtocolViolation {
        /// What the worker sent (or failed to send).
        detail: String,
    },
    /// Merging per-shard campaign journals failed an integrity check:
    /// a binding mismatch, a per-record CRC failure, a range gap or
    /// overlap, a duplicate record, or a summary that disagrees with
    /// the records it covers.
    ShardMerge {
        /// The shard journal that failed the check.
        path: String,
        /// Which invariant it violated.
        reason: String,
    },
    /// A campaign shard exhausted its re-dispatch budget without ever
    /// producing a complete, valid journal.
    ShardLost {
        /// Shard index within the campaign.
        shard: u32,
        /// First plan index of the shard's injection range.
        start: u64,
        /// One past the last plan index of the shard's range.
        end: u64,
        /// What killed the final attempt.
        detail: String,
    },
    /// A network operation in the remote dispatch layer failed:
    /// connect, resolve, a framed read/write, or a peer deadline.
    Net {
        /// The remote address (or peer label) involved.
        addr: String,
        /// What went wrong.
        detail: String,
    },
    /// A campaign submission was refused by the coordinator's
    /// admission control: the in-flight limit was reached and the
    /// client's queue allowance was already full.
    Admission {
        /// The client whose submission was refused.
        client: String,
        /// Why it was refused.
        reason: String,
    },
    /// An audit re-execution of a leased injection range reached a
    /// verdict about a worker: `pass` (the streams agreed), `convict`
    /// (the trusted tie-breaker proved the worker lied), or
    /// `inconclusive` (no second opinion could be obtained before the
    /// re-dispatch budget ran out).
    Audit {
        /// The audited worker (peer label or worker id).
        worker: String,
        /// The campaign the range belongs to.
        campaign: String,
        /// First plan index of the audited injection range.
        start: u64,
        /// One past the last plan index of the audited range.
        end: u64,
        /// The verdict: `pass`, `convict`, or `inconclusive`.
        verdict: String,
    },
}

impl fmt::Display for NfpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfpError::Sim(e) => write!(f, "simulation failed: {e}"),
            NfpError::KernelFailed { kernel, exit_code } => {
                write!(f, "kernel '{kernel}' exited with code {exit_code}")
            }
            NfpError::OutputMismatch { kernel } => {
                write!(f, "kernel '{kernel}' produced wrong result words")
            }
            NfpError::Empty { what } => write!(f, "nothing to summarise: {what} is empty"),
            NfpError::WorkerLost { job } => {
                write!(f, "parallel worker died without delivering '{job}'")
            }
            NfpError::Journal { path, reason } => write!(f, "journal '{path}': {reason}"),
            NfpError::JournalMismatch {
                path,
                field,
                journal,
                campaign,
            } => {
                write!(
                    f,
                    "campaign journal '{path}' belongs to a different campaign: \
                     {field} is {journal} in the journal but {campaign} here \
                     (delete the journal or fix the flags to resume)"
                )
            }
            NfpError::Workload { what, reason } => {
                write!(f, "building workload '{what}' failed: {reason}")
            }
            NfpError::Calibration { class, reason } => {
                write!(f, "calibration of '{class}' is degenerate: {reason}")
            }
            NfpError::WorkerKilled { signal } => match signal {
                Some(s) => write!(f, "campaign worker process killed by signal {s}"),
                None => write!(f, "campaign worker process died unexpectedly"),
            },
            NfpError::ProtocolViolation { detail } => {
                write!(f, "campaign worker protocol violation: {detail}")
            }
            NfpError::ShardMerge { path, reason } => {
                write!(f, "merging shard journal '{path}' failed: {reason}")
            }
            NfpError::ShardLost {
                shard,
                start,
                end,
                detail,
            } => {
                write!(
                    f,
                    "shard {shard} (injections {start}..{end}) lost after exhausting its \
                     re-dispatch budget: {detail}"
                )
            }
            NfpError::Net { addr, detail } => {
                write!(f, "network dispatch via '{addr}' failed: {detail}")
            }
            NfpError::Admission { client, reason } => {
                write!(f, "campaign submission from '{client}' refused: {reason}")
            }
            NfpError::Audit {
                worker,
                campaign,
                start,
                end,
                verdict,
            } => {
                write!(
                    f,
                    "audit of injections {start}..{end} of '{campaign}' returned verdict \
                     '{verdict}' for worker {worker}"
                )
            }
        }
    }
}

impl std::error::Error for NfpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NfpError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for NfpError {
    fn from(e: SimError) -> Self {
        NfpError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_signs() {
        assert!((relative_error(103.0, 100.0) - 0.03).abs() < 1e-12);
        assert!((relative_error(97.0, 100.0) + 0.03).abs() < 1e-12);
    }

    #[test]
    fn summary_mean_and_max() {
        let s = ErrorSummary::from_errors(&[0.01, -0.03, 0.02]).unwrap();
        assert!((s.mean_abs - 0.02).abs() < 1e-12);
        assert!((s.max_abs - 0.03).abs() < 1e-12);
        assert_eq!(s.kernels, 3);
    }

    #[test]
    fn summary_from_pairs() {
        let s = ErrorSummary::from_pairs(&[(102.0, 100.0), (196.0, 200.0)]).unwrap();
        assert!((s.mean_abs - 0.02).abs() < 1e-12);
        assert!((s.max_abs - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_none() {
        assert_eq!(ErrorSummary::from_errors(&[]), None);
        assert_eq!(ErrorSummary::from_pairs(&[]), None);
    }

    #[test]
    fn nfp_error_display_and_conversion() {
        let e: NfpError = SimError::BudgetExhausted { limit: 5 }.into();
        assert_eq!(
            e.to_string(),
            "simulation failed: instruction budget of 5 exhausted"
        );
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(
            NfpError::Empty { what: "kernel set" }.to_string(),
            "nothing to summarise: kernel set is empty"
        );
        assert_eq!(
            NfpError::Journal {
                path: "run/serve.journal".to_string(),
                reason: "not a service journal (bad or missing header)".to_string(),
            }
            .to_string(),
            "journal 'run/serve.journal': not a service journal (bad or missing header)"
        );
    }

    #[test]
    fn worker_and_protocol_errors_display() {
        assert_eq!(
            NfpError::WorkerKilled { signal: Some(9) }.to_string(),
            "campaign worker process killed by signal 9"
        );
        assert_eq!(
            NfpError::WorkerKilled { signal: None }.to_string(),
            "campaign worker process died unexpectedly"
        );
        let shown = NfpError::ProtocolViolation {
            detail: "oversized frame".to_string(),
        }
        .to_string();
        assert!(shown.contains("protocol violation"), "{shown}");
        assert!(shown.contains("oversized frame"), "{shown}");
        let shown = NfpError::Calibration {
            class: "NOP".to_string(),
            reason: "zero test-instruction count".to_string(),
        }
        .to_string();
        assert!(
            shown.contains("NOP") && shown.contains("degenerate"),
            "{shown}"
        );
    }

    #[test]
    fn shard_errors_display() {
        let shown = NfpError::ShardMerge {
            path: "c.shard2of4.jsonl".to_string(),
            reason: "record 17 fails its CRC".to_string(),
        }
        .to_string();
        assert!(shown.contains("c.shard2of4.jsonl"), "{shown}");
        assert!(shown.contains("CRC"), "{shown}");
        let shown = NfpError::ShardLost {
            shard: 2,
            start: 200,
            end: 300,
            detail: "journal torn on every attempt".to_string(),
        }
        .to_string();
        assert!(shown.contains("shard 2"), "{shown}");
        assert!(shown.contains("200..300"), "{shown}");
        assert!(shown.contains("re-dispatch budget"), "{shown}");
    }

    #[test]
    fn net_and_admission_errors_display() {
        let shown = NfpError::Net {
            addr: "10.0.0.7:7447".to_string(),
            detail: "connect timed out".to_string(),
        }
        .to_string();
        assert!(shown.contains("10.0.0.7:7447"), "{shown}");
        assert!(shown.contains("connect timed out"), "{shown}");
        let shown = NfpError::Admission {
            client: "tenant-a".to_string(),
            reason: "2 campaigns already queued (per-client cap 2)".to_string(),
        }
        .to_string();
        assert!(shown.contains("tenant-a"), "{shown}");
        assert!(shown.contains("refused"), "{shown}");
        assert!(shown.contains("per-client cap"), "{shown}");
    }

    #[test]
    fn audit_errors_display_every_verdict() {
        for verdict in ["pass", "convict", "inconclusive"] {
            let shown = NfpError::Audit {
                worker: "worker 81403".to_string(),
                campaign: "fse_img00".to_string(),
                start: 200,
                end: 250,
                verdict: verdict.to_string(),
            }
            .to_string();
            assert!(shown.contains("audit"), "{shown}");
            assert!(shown.contains("worker 81403"), "{shown}");
            assert!(shown.contains("fse_img00"), "{shown}");
            assert!(shown.contains("200..250"), "{shown}");
            assert!(shown.contains(verdict), "{shown}");
        }
    }
}
