//! Crash-safe trial journal: an append-only write-ahead log of AutoML
//! trials, plus the machinery to read it back for resume, replay and
//! warm-starting (the Rust counterpart of the Python FLAML's
//! `log_file_name` / `retrain_from_log` persistence).
//!
//! # The log
//!
//! Every durable log of the stack is a [`Log`]: a JSONL file whose first
//! line is a header (carrying its schema version, see [`LogHeader`]) and
//! whose every later line is one committed record. Records are appended
//! with **fsync-on-commit**, so a record is durable before its writer
//! proceeds, and a crash can lose at most the record being written when
//! the process died. The reader is *torn-tail tolerant*: a record counts
//! as committed only if it is newline-terminated, valid UTF-8, and
//! parses; at the first line failing any test the reader stops and
//! returns the maximal committed prefix, never an error. Every operation
//! goes through the caller's [`flaml_store::Storage`].
//!
//! # The trial journal
//!
//! A trial journal is a `Log<JournalHeader, TrialLine>`: the
//! [`JournalHeader`] holds the schema version, run configuration and
//! dataset fingerprint, every [`TrialLine`] one committed trial.
//! [`JournalWriter`] appends them; [`Journal::read`] reads them back with
//! the queries resume and warm-start need; [`discover`] finds resumable
//! journals under a root.
//!
//! # Consuming trial events
//!
//! The writer subscribes to a run as a [`flaml_exec::EventSink`]
//! consumer: [`JournalWriter::into_sink`] wraps it in a synchronous
//! callback sink that appends one record per committed terminal event
//! (the events carrying [`flaml_exec::TrialMeta`]). Fan the sink together
//! with any live telemetry sink via [`flaml_exec::EventSink::fanout`].

#![warn(missing_docs)]

mod discover;
mod log;
mod reader;
mod record;
mod writer;

pub use discover::{discover, DiscoveredJournal};
pub use log::{Log, LogContents, LogError, LogHeader};
pub use reader::{Journal, JournalError};
pub use record::{DatasetInfo, JournalHeader, TrialLine, SCHEMA_VERSION};
pub use writer::{JournalWriter, SharedJournalWriter};
