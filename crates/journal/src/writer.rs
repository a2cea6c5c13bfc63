//! The append side of the trial journal: the [`EventSink`] adapter
//! over a [`Log`] of trial lines.

use crate::log::Log;
use crate::record::{JournalHeader, TrialLine};
use flaml_exec::{EventSink, TrialEvent};
use flaml_store::{Storage, StorageError};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Appends journal records with fsync-on-commit (see [`Log`]).
///
/// I/O errors after creation are reported once via
/// [`JournalWriter::take_error`] and otherwise swallowed: persistence
/// must never crash a search mid-run. Until that error is taken, the
/// writer appends nothing more.
#[derive(Debug)]
pub struct JournalWriter {
    log: Log<JournalHeader, TrialLine>,
    /// First storage error encountered while appending, if any.
    error: Option<StorageError>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and durably writes its
    /// header record. Parent directories are created as needed.
    ///
    /// # Errors
    ///
    /// Returns the typed storage failure from creating or syncing.
    pub fn create(
        storage: &dyn Storage,
        path: impl AsRef<Path>,
        header: &JournalHeader,
    ) -> Result<JournalWriter, StorageError> {
        Log::create(storage, path.as_ref(), header).map(JournalWriter::new)
    }

    /// Reopens a journal for a resumed run: truncates the file to its
    /// committed prefix (discarding any torn tail, so new records can
    /// never glue onto torn bytes) and appends after it. Pass the
    /// `committed_bytes` reported by [`crate::Journal::read`].
    ///
    /// # Errors
    ///
    /// Returns the typed storage failure from truncating or opening.
    pub fn resume(
        storage: &dyn Storage,
        path: impl AsRef<Path>,
        committed_bytes: u64,
    ) -> Result<JournalWriter, StorageError> {
        Log::resume(storage, path.as_ref(), committed_bytes).map(JournalWriter::new)
    }

    fn new(log: Log<JournalHeader, TrialLine>) -> JournalWriter {
        JournalWriter { log, error: None }
    }

    /// Appends one committed trial record durably. A failed append is
    /// recorded (see [`JournalWriter::take_error`]) but does not panic.
    pub fn append(&mut self, line: &TrialLine) {
        if self.error.is_none() {
            self.error = self.log.append(line).err();
        }
    }

    /// Consumes one trial event, appending a record if it is a committed
    /// terminal event (carries an error and full trial metadata).
    pub fn on_event(&mut self, event: &TrialEvent) {
        if let Some(line) = TrialLine::from_event(event) {
            self.append(&line);
        }
    }

    /// The first append error encountered, if any (taking it resets the
    /// writer's error state).
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Bytes known durably committed so far.
    pub fn committed_len(&self) -> u64 {
        self.log.committed_len()
    }

    /// Fsyncs any buffered bytes now, without appending a record.
    /// Dropping the writer does the same, so a server shutting down
    /// mid-search never loses the last committed record.
    ///
    /// # Errors
    ///
    /// The storage failure.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.log.sync()
    }

    /// Wraps the writer in a synchronous [`EventSink`]: every committed
    /// terminal event emitted into the sink is appended (and fsynced)
    /// before the emitting thread proceeds. Fan this together with live
    /// telemetry sinks via [`EventSink::fanout`]. Use
    /// [`JournalWriter::into_shared`] instead when the caller needs to
    /// observe append errors after the run.
    pub fn into_sink(self) -> EventSink {
        self.into_shared().sink()
    }

    /// Wraps the writer in a [`SharedJournalWriter`], which hands out
    /// sinks *and* keeps a handle for checking [`take_error`] once the
    /// run is over.
    ///
    /// [`take_error`]: SharedJournalWriter::take_error
    pub fn into_shared(self) -> SharedJournalWriter {
        SharedJournalWriter(Arc::new(Mutex::new(self)))
    }
}

/// A clonable handle to a [`JournalWriter`] that separates *writing*
/// (the [`EventSink`] from [`SharedJournalWriter::sink`], handed to the
/// search) from *error observation* ([`SharedJournalWriter::take_error`],
/// checked by the owner after the run). This is how a search turns a
/// mid-run `ENOSPC` into a typed terminal failure instead of silently
/// dropping records.
#[derive(Debug, Clone)]
pub struct SharedJournalWriter(Arc<Mutex<JournalWriter>>);

impl SharedJournalWriter {
    /// A synchronous sink appending committed terminal events to the
    /// shared writer.
    pub fn sink(&self) -> EventSink {
        let writer = Arc::clone(&self.0);
        EventSink::callback(move |event| {
            if let Ok(mut w) = writer.lock() {
                w.on_event(event);
            }
        })
    }

    /// The first append error encountered, if any (taking it resets the
    /// writer's error state).
    pub fn take_error(&self) -> Option<StorageError> {
        self.0.lock().ok().and_then(|mut w| w.take_error())
    }

    /// Bytes known durably committed so far.
    pub fn committed_len(&self) -> u64 {
        self.0.lock().map(|w| w.committed_len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::Journal;
    use crate::record::{DatasetInfo, SCHEMA_VERSION};
    use flaml_store::DiskStorage;

    fn header() -> JournalHeader {
        JournalHeader {
            schema_version: SCHEMA_VERSION,
            seed: 7,
            time_budget: 1.0,
            max_trials: Some(10),
            sample_size_init: 100,
            sampling: true,
            learner_selection: "eci".into(),
            resample: "auto".into(),
            metric: "".into(),
            estimators: vec!["lightgbm".into(), "lr".into()],
            time_source: "virtual".into(),
            dataset: DatasetInfo {
                name: "t".into(),
                task: "binary".into(),
                rows: 100,
                features: 2,
                fingerprint: 0xfeed,
            },
        }
    }

    fn line(iter: usize) -> TrialLine {
        TrialLine {
            iter,
            learner: "lightgbm".into(),
            config: "x=1".into(),
            config_values: vec![1.0],
            sample_size: 100,
            loss: 0.5 / iter as f64,
            status: "ok".into(),
            mode: "search".into(),
            attempts: 0,
            attempt_costs: vec![0.1],
            cost: 0.1,
            total_time: 0.1 * iter as f64,
            wall_secs: 0.0,
            prepared_hits: 0,
            prepared_misses: 0,
            prepared_evictions: 0,
            bytes_copied_saved: 0,
            tree_cache_hits: 0,
            tree_cache_misses: 0,
            trees_saved: 0,
            seed: 7,
            improved: true,
            best_loss: 0.5 / iter as f64,
        }
    }

    #[test]
    fn create_append_read_round_trip() {
        let dir = std::env::temp_dir().join("flaml-journal-writer-test");
        let path = dir.join("run.jsonl");
        let mut w = JournalWriter::create(&DiskStorage, &path, &header()).unwrap();
        w.append(&line(1));
        w.append(&line(2));
        assert!(w.take_error().is_none());
        drop(w);

        let len = std::fs::metadata(&path).unwrap().len();
        let mut w = JournalWriter::resume(&DiskStorage, &path, len).unwrap();
        w.append(&line(3));
        drop(w);

        let j = Journal::read(&DiskStorage, &path).unwrap();
        assert_eq!(j.header, header());
        assert_eq!(j.trials.len(), 3);
        assert_eq!(j.trials[2], line(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_sink_appends_committed_terminals_only() {
        use flaml_exec::{TrialEvent, TrialEventKind, TrialMeta};
        let dir = std::env::temp_dir().join("flaml-journal-sink-test");
        let path = dir.join("run.jsonl");
        let sink = JournalWriter::create(&DiskStorage, &path, &header())
            .unwrap()
            .into_sink();

        sink.emit(TrialEvent::new(TrialEventKind::Started));
        let mut ev = TrialEvent::new(TrialEventKind::Finished);
        ev.job_id = 1;
        ev.learner = "lr".into();
        ev.error = Some(0.25);
        ev.cost = Some(0.1);
        ev.meta = Some(TrialMeta {
            mode: "search".into(),
            status: "ok".into(),
            attempt_costs: vec![0.1],
            best_error: 0.25,
            improved: true,
            config_values: vec![0.5],
            ..TrialMeta::default()
        });
        sink.emit(ev.clone());
        // A discarded speculative trial: terminal kind but no error/meta.
        let mut discarded = TrialEvent::new(TrialEventKind::Finished);
        discarded.message = Some("speculative trial discarded".into());
        sink.emit(discarded);
        drop(sink);

        let j = Journal::read(&DiskStorage, &path).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert_eq!(j.trials[0].learner, "lr");
        assert_eq!(j.trials[0].loss, 0.25);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_truncates_to_committed_prefix_and_latches() {
        use flaml_store::{ChaosStorage, IoFaultPlan};
        let dir = std::env::temp_dir().join("flaml-journal-chaos-append");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");

        // Count the ops of one clean append so the chaos run can fault
        // exactly the second record's write.
        let clean = ChaosStorage::new(flaml_store::disk(), IoFaultPlan::new(0));
        let mut w = JournalWriter::create(&clean, &path, &header()).unwrap();
        let after_create = clean.ops_issued();
        w.append(&line(1));
        let per_append = clean.ops_issued() - after_create;
        drop(w);

        // Short-write every op: header creation would fail, so create
        // cleanly first, then reopen under chaos for the append.
        let mut w = JournalWriter::create(&DiskStorage, &path, &header()).unwrap();
        w.append(&line(1));
        drop(w);
        let committed = Journal::read(&DiskStorage, &path).unwrap().committed_bytes;

        let chaotic = ChaosStorage::new(flaml_store::disk(), IoFaultPlan::new(3).short_writes(1.0));
        let mut w = JournalWriter::resume(&chaotic, &path, committed).unwrap();
        w.append(&line(2));
        let err = w.take_error().expect("the torn append is reported");
        assert!(matches!(err, StorageError::TornWrite { .. }), "{err}");
        drop(w);
        assert!(per_append >= 1);

        // The file is exactly its committed prefix — no torn bytes —
        // and reads back as the one committed record.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        let j = Journal::read(&DiskStorage, &path).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert_eq!(j.committed_bytes, committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_writer_reports_errors_after_the_run() {
        use flaml_store::{ChaosStorage, IoFaultPlan};
        let dir = std::env::temp_dir().join("flaml-journal-shared-err");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let mut w = JournalWriter::create(&DiskStorage, &path, &header()).unwrap();
        w.append(&line(1));
        drop(w);
        let len = std::fs::metadata(&path).unwrap().len();

        let chaotic = ChaosStorage::new(flaml_store::disk(), IoFaultPlan::new(1).enospc(1.0));
        let shared = JournalWriter::resume(&chaotic, &path, len)
            .expect_err("reopening hits injected ENOSPC");
        assert!(shared.is_no_space());

        // With faults off the shared handle reports no error.
        let shared = JournalWriter::resume(&DiskStorage, &path, len)
            .unwrap()
            .into_shared();
        let sink = shared.sink();
        drop(sink);
        assert!(shared.take_error().is_none());
        assert!(shared.committed_len() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
