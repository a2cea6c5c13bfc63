//! Cooperative pause/resume slicing of a search: [`SearchHandle`].
//!
//! A multi-tenant service cannot let one tenant's `fit` monopolize the
//! shared pool until its budget runs out. [`SearchHandle`] chops a
//! journal-backed search into *slices* of a few trials each: a
//! scheduler runs one slice, parks the handle, and runs some other
//! tenant's slice — proportional time-sharing without threads being
//! preempted mid-trial.
//!
//! The mechanism is the journal itself. Each slice is a full
//! [`AutoMl::fit`] with `max_trials` capped a few trials past what the
//! journal already holds; the first slice creates the journal, every
//! later slice resumes from it (replaying the committed prefix through
//! the controller, which restores FLOW² incumbents, ECI state and spent
//! budget exactly). Under a virtual clock the concatenated journal's
//! canonical bytes ([`Journal::canonical_bytes`]) are **identical** to
//! a single uninterrupted run's — the header even records the run's
//! *target* trial cap rather than any slice's cap (see
//! `AutoMl::header_max_trials`) — which is what lets a crashed server
//! [`SearchHandle::attach`] to a tenant's journal and verify the
//! resumed trace against a reference run.

use crate::automl::{AutoMl, AutoMlError, AutoMlResult};
use flaml_data::Dataset;
use flaml_journal::Journal;
use std::path::PathBuf;

/// What one [`SearchHandle::run_slice`] call concluded.
#[derive(Debug)]
pub enum SliceOutcome {
    /// The slice's trial cap was hit with search budget remaining; call
    /// [`SearchHandle::run_slice`] again to continue.
    Paused {
        /// Committed trials on disk so far.
        committed: usize,
        /// Budget seconds spent so far (per the journal).
        spent: f64,
    },
    /// The search ran to completion (target trial cap or budget
    /// exhaustion) and produced its final result.
    Finished(Box<AutoMlResult>),
}

/// A journal-backed search that runs in cooperative slices (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct SearchHandle {
    settings: AutoMl,
    journal: PathBuf,
    started: bool,
    finished: bool,
    committed: usize,
    spent: f64,
}

impl SearchHandle {
    /// A handle for a fresh search journaling to `journal` (created /
    /// truncated on the first slice). `settings` carries the run's full
    /// configuration — its `max_trials` is the *target* cap the sliced
    /// search works toward; any `journal`/`resume_from` already set on
    /// it is overridden.
    pub fn new(settings: AutoMl, journal: impl Into<PathBuf>) -> SearchHandle {
        SearchHandle {
            settings,
            journal: journal.into(),
            started: false,
            finished: false,
            committed: 0,
            spent: 0.0,
        }
    }

    /// A handle resuming the existing journal at `journal` — the crash
    /// recovery path. `settings` must match the journal's header (same
    /// seed, estimators, dataset…), exactly as [`AutoMl::resume_from`]
    /// requires; mismatches surface as [`AutoMlError::ResumeMismatch`]
    /// on the first slice.
    ///
    /// # Errors
    ///
    /// Returns [`AutoMlError::Journal`] if the journal cannot be read.
    pub fn attach(
        settings: AutoMl,
        journal: impl Into<PathBuf>,
    ) -> Result<SearchHandle, AutoMlError> {
        let journal = journal.into();
        let on_disk = Journal::read(settings.journal_storage().as_ref(), &journal)?;
        Ok(SearchHandle {
            settings,
            journal,
            started: true,
            finished: false,
            committed: on_disk.trials.len(),
            spent: on_disk.spent_budget(),
        })
    }

    /// Committed trials on disk after the last slice.
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// Budget seconds spent after the last slice.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Whether a slice already returned [`SliceOutcome::Finished`].
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The journal path this handle drives.
    pub fn journal_path(&self) -> &std::path::Path {
        &self.journal
    }

    /// Runs up to `slice_trials` more trials (at least 1), then yields.
    ///
    /// Returns [`SliceOutcome::Finished`] when the search hit its
    /// target trial cap or exhausted its time budget within the slice —
    /// the journal then holds the complete run and the final model has
    /// been refit. Otherwise returns [`SliceOutcome::Paused`]; the
    /// journal holds every committed trial, so the handle (or a new
    /// [`SearchHandle::attach`]ed one in a different process) can
    /// continue.
    ///
    /// # Errors
    ///
    /// Any [`AutoMlError`] from the underlying fit. `NoViableModel` is
    /// special-cased: on a non-final slice it only means *no finite
    /// loss yet*, so the slice reports `Paused` instead of failing.
    pub fn run_slice(
        &mut self,
        data: &Dataset,
        slice_trials: usize,
    ) -> Result<SliceOutcome, AutoMlError> {
        let target = self.settings.max_trials;
        let mut cap = self.committed + slice_trials.max(1);
        if let Some(t) = target {
            cap = cap.min(t);
        }

        let mut slice = self.settings.clone();
        slice.max_trials = Some(cap);
        slice.header_max_trials = Some(target);
        slice.journal_path = Some(self.journal.clone());
        slice.resume = self.started;
        self.started = true;

        match slice.fit(data) {
            Ok(result) => {
                let n = result.trials.len();
                self.committed = n;
                self.spent = result.trials.last().map_or(0.0, |t| t.total_time);
                // Fewer trials than the cap allows means the budget ran
                // out mid-slice; exactly the target cap means the run is
                // done. Only a slice cut short by its own cap pauses.
                let finished =
                    n < cap || target == Some(n) || self.spent >= self.settings.time_budget;
                if finished {
                    self.finished = true;
                    Ok(SliceOutcome::Finished(Box::new(result)))
                } else {
                    Ok(SliceOutcome::Paused {
                        committed: self.committed,
                        spent: self.spent,
                    })
                }
            }
            Err(AutoMlError::NoViableModel) => {
                // No finite loss in the journal yet. If this slice was
                // cut short by its own cap the search is merely unlucky
                // so far — pause and let a later slice keep looking.
                let on_disk =
                    Journal::read(self.settings.journal_storage().as_ref(), &self.journal)?;
                self.committed = on_disk.trials.len();
                self.spent = on_disk.spent_budget();
                let out_of_road = target == Some(self.committed)
                    || self.spent >= self.settings.time_budget
                    || self.committed < cap;
                if out_of_road {
                    self.finished = true;
                    Err(AutoMlError::NoViableModel)
                } else {
                    Ok(SliceOutcome::Paused {
                        committed: self.committed,
                        spent: self.spent,
                    })
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Runs slices of `slice_trials` back to back until the search
    /// finishes. Equivalent to a single `fit`, byte-identical journal
    /// included; exists mostly for tests and simple callers.
    ///
    /// # Errors
    ///
    /// Any [`AutoMlError`] from the underlying fit.
    pub fn run_to_end(
        &mut self,
        data: &Dataset,
        slice_trials: usize,
    ) -> Result<AutoMlResult, AutoMlError> {
        loop {
            if let SliceOutcome::Finished(result) = self.run_slice(data, slice_trials)? {
                return Ok(*result);
            }
        }
    }
}
