//! The stream journal: a durable, torn-tail-tolerant record of the
//! online loop's every decision.
//!
//! One JSONL file per stream: a header line (the stream's full
//! configuration — the durable source of truth a recovering process
//! reopens with) followed by one [`OnlineEvent`] per state transition:
//! chunk ingested, champion evaluated, drift detected, challenger round
//! started, promotion / rejection / rollback decided. Events carry no
//! wall-clock time and no process-local identifiers, so the byte
//! content of the journal is a pure function of the stream's chunks and
//! configuration — the property the determinism suite asserts across
//! worker counts and kill-and-resume runs.
//!
//! The file is a [`flaml_journal::Log`]`<OnlineHeader, OnlineEvent>`:
//! the trial journal's fsync-on-commit append and torn-tail-tolerant
//! read, over these two record types.

use flaml_journal::LogHeader;
use serde::{Deserialize, Serialize};

/// Stream-journal schema version.
pub const ONLINE_SCHEMA_VERSION: u32 = 1;

/// First line of a stream journal: the full stream configuration.
/// Recovery rebuilds an [`crate::OnlineConfig`] from this, so the
/// journal alone (plus the persisted window chunks and champion
/// artifacts next to it) is sufficient to resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineHeader {
    /// Schema version ([`ONLINE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Master seed for challenger searches.
    pub seed: u64,
    /// Task name as printed by [`crate::task_name`].
    pub task: String,
    /// Features per chunk row.
    pub features: usize,
    /// Evaluation metric name ([`flaml_metrics::Metric::name`]).
    pub metric: String,
    /// Learner names searched by challenger rounds.
    pub estimators: Vec<String>,
    /// Sliding-window length in chunks.
    pub window_chunks: usize,
    /// Most recent chunks held out from challenger training.
    pub holdout_chunks: usize,
    /// Chunks accumulated before the first (warmup) round.
    pub warmup_chunks: usize,
    /// Drift-detector recent-window length.
    pub drift_window: usize,
    /// Drift-detector loss-shift threshold.
    pub drift_threshold: f64,
    /// Loss margin a challenger must beat the champion by.
    pub promote_margin: f64,
    /// Post-promotion probation length in chunks (0 = no rollback).
    pub probation_chunks: usize,
    /// Scheduled challenger rounds every N chunks (0 = drift-only).
    pub refresh_every: usize,
    /// Virtual-seconds budget per challenger search.
    pub round_budget: f64,
    /// Trial cap per challenger search.
    pub round_trials: usize,
}

impl LogHeader for OnlineHeader {
    const SCHEMA_VERSION: u32 = ONLINE_SCHEMA_VERSION;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }
}

/// Event kinds, as stored in [`OnlineEvent::kind`].
pub mod kind {
    /// A chunk was ingested (fingerprint + rows recorded).
    pub const CHUNK: &str = "chunk";
    /// A model (champion, or the previous champion during probation)
    /// was evaluated on the incoming chunk.
    pub const EVAL: &str = "eval";
    /// The drift detector fired.
    pub const DRIFT: &str = "drift";
    /// A challenger round started (its search journal is durable state).
    pub const ROUND: &str = "round";
    /// A challenger was promoted to champion.
    pub const PROMOTE: &str = "promote";
    /// A challenger lost to the champion.
    pub const REJECT: &str = "reject";
    /// Probation failed; the previous champion was restored.
    pub const ROLLBACK: &str = "rollback";
}

/// One committed state transition of the online loop. A single flat
/// struct (rather than a tagged enum) keeps the serialized layout
/// identical across kinds; unused fields are zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineEvent {
    /// Event kind (see [`kind`]).
    pub kind: String,
    /// Index of the chunk during whose processing the event happened.
    pub chunk: usize,
    /// Chunk fingerprint ([`flaml_data::Dataset::fingerprint`]);
    /// `chunk` events only.
    pub fingerprint: u64,
    /// Chunk rows; `chunk` events only.
    pub rows: usize,
    /// Champion era the event concerns (1-based; `eval`, `promote`,
    /// `rollback`).
    pub era: u64,
    /// Challenger round index (1-based; `round`, `promote`, `reject`).
    pub round: u64,
    /// Per-chunk eval loss (`eval`), or the challenger's held-out loss
    /// (`promote` / `reject`).
    pub loss: f64,
    /// Drift baseline mean (`drift`), or the champion's held-out loss
    /// (`promote` / `reject`; infinite when there was no champion).
    pub baseline: f64,
    /// Drift recent-window mean (`drift` events only).
    pub recent: f64,
    /// Round trigger ("warmup" | "drift" | "scheduled"); `round` and
    /// `promote` events.
    pub reason: String,
    /// Era-based version now served (`promote`: the new era;
    /// `rollback`: the era rolled back to).
    pub version: u64,
    /// Era served before the event (0 = none) — the exact rollback
    /// target recorded at promotion time.
    pub previous: u64,
    /// Champion artifact fingerprint (`promote` events only).
    pub model_fp: u64,
}

impl OnlineEvent {
    /// A zeroed event of `kind` for chunk `chunk`.
    pub fn new(kind: &str, chunk: usize) -> OnlineEvent {
        OnlineEvent {
            kind: kind.to_string(),
            chunk,
            fingerprint: 0,
            rows: 0,
            era: 0,
            round: 0,
            loss: 0.0,
            baseline: 0.0,
            recent: 0.0,
            reason: String::new(),
            version: 0,
            previous: 0,
            model_fp: 0,
        }
    }
}
