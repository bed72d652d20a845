//! Campaign supervision for long variability experiments.
//!
//! The paper's measurement campaigns run for hours across many
//! (runtime, schedule, affinity) cells; a single transient failure — an
//! injected-fault storm, a timeout, a panicking repetition — should cost
//! one retry, not the whole campaign, and a `kill -9` should cost at
//! most the unit in flight. This crate provides the four pieces:
//!
//! - [`classify`]: maps every typed backend error ([`ompvar_sim::SimError`],
//!   [`ompvar_rt::RtError`], region validation) to *transient* (retry)
//!   or *permanent* (quarantine), with deliberately exhaustive matches
//!   so new error variants are a compile error here, not silent drift.
//! - [`backoff`]: seeded deterministic exponential backoff with jitter —
//!   a pure function of `(seed, attempt)`, so replays are bit-identical.
//! - [`checkpoint`]: the versioned `ompvar-checkpoint/1` JSONL manifest,
//!   flushed through [`fsio::atomic_write`] so readers never observe a
//!   torn file; `--resume` replays completed units from it.
//! - [`supervisor`]: the engine tying them together, emitting
//!   [`ompvar_obs`] attempt spans and supervisor instants so recovery
//!   history lands in the same Chrome traces as the runs themselves.
//! - [`adaptive`]: dispersion-driven re-measurement — extra repetitions
//!   for unstable cells only, capped and recorded.
//! - [`executor`]: the fault-tolerant parallel layer — a work-stealing
//!   pool of workers, each journaling into its own shard manifest, with
//!   a hang watchdog, per-worker panic isolation, and a deterministic
//!   shard merge on resume.

#![warn(missing_docs)]

pub mod adaptive;
pub mod backoff;
pub mod chaos;
pub mod checkpoint;
pub mod classify;
pub mod executor;
pub mod fsio;
pub mod supervisor;

pub use adaptive::{dispersion, stabilize, Stabilized, StabilityPolicy};
pub use backoff::{name_seed, Backoff, BackoffCfg};
pub use chaos::{
    injected_error, injected_fault, install as install_chaos, ChaosAction, ChaosGuard, CrashPoint,
    FaultKind, FaultPlan as IoFaultPlan, InjectedFault, IoChaos, ProcChaos,
};
pub use checkpoint::{
    create_shards, existing_shards, resume_shards, resume_shards_lenient, shard_path,
    CheckpointError, Entry, Header, Manifest, RetryRecord, UnitStatus, SCHEMA,
};
pub use executor::{
    par_map, resolve_jobs, run_campaign, CampaignRun, ExecUnit, ExecutorConfig, Progress, UnitResult,
    Watchdog,
};
pub use classify::{classify, classify_io, classify_panic, classify_region, classify_sim, Transience};
pub use fsio::atomic_write;
pub use supervisor::{
    attempt_seed, Checkpointable, Outcome, Supervisor, SupervisorConfig, UnitError,
};
