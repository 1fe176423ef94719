//! `nfp-bench`: the reproduction harness.
//!
//! [`Evaluation`] runs the paper's full workflow — calibrate the cost
//! model (Table I), then simulate each kernel variant once on the
//! virtual testbed, which measures ground truth while the ISS counts
//! instructions per Table I category, and estimate from those counts
//! with Eq. 1 — and the report functions render every table and figure
//! of the paper, each that evaluates kernels from one such sweep:
//!
//! * [`report_table1`] — specific times/energies vs the paper's values;
//! * [`report_fig4`]   — measured vs estimated for four showcase kernels;
//! * [`report_table3`] — mean/max absolute estimation error over all kernels;
//! * [`report_table4`] — the FPU design trade-off;
//! * [`report_fig1`]   — simulation-speed vs accuracy landscape;
//! * [`report_ablation_categories`] / [`report_ablation_calibration`] —
//!   additional ablations;
//! * [`report_cache_extension`] — the constant-cost model on a board
//!   with a data cache.
//!
//! Beyond the paper, [`campaign`] adds SEU fault-injection campaigns:
//! [`run_campaign`] replays a kernel under seeded single-bit flips and
//! classifies each replay as masked/SDC/trap/hang into a
//! per-instruction-category vulnerability report.

mod backoff;
mod book;
mod cache;
pub mod campaign;
mod crc;
pub mod evaluation;
mod flatjson;
mod identity;
mod journal;
mod net;
pub mod reports;
pub mod serve;
mod servejournal;
pub mod shards;
pub mod supervisor;
pub mod worker;

pub use campaign::{
    report_campaign, run_campaign, CampaignConfig, CampaignResult, InjectionRecord,
};
pub use evaluation::{run_variants, Evaluation, KernelResult, Mode};
pub use reports::*;
pub use serve::{
    submit_campaign, submit_campaign_retry, submit_campaign_with, CampaignRequest, RemoteOutcome,
    ServeConfig, ServeSummary, Server,
};
pub use shards::{
    merge_journals, peek_campaign, run_sharded, shard_journal_path, MergeOutcome, ShardConfig,
    ShardOutcome, ShardSpec,
};
pub use supervisor::{
    run_campaign_parallel, run_supervised, QuarantineEntry, SupervisorConfig, SupervisorOutcome,
    WorkerIsolation,
};
pub use worker::{run_worker, run_worker_connect, run_worker_connect_with, LiePlan, WorkerPreset};
