//! The one durable log format of the stack: a JSONL file whose first
//! line is a header and whose every later line is one record.
//!
//! Both durable logs are a [`Log`]: the trial journal
//! (`Log<JournalHeader, TrialLine>`, wrapped by [`crate::JournalWriter`])
//! and the online stream log (`Log<OnlineHeader, OnlineEvent>` in
//! `flaml-online`). [`Log::append`] is **fsync-on-commit** — one
//! `write_all` plus one `sync_data` per record — and truncates the file
//! back to its committed prefix when either fails, so torn bytes never
//! glue onto a later record. [`Log::read`] is **torn-tail tolerant**: a
//! record counts as committed only if its line is newline-terminated,
//! valid UTF-8, and parses; the first line failing any of these ends the
//! committed prefix, which is returned instead of an error.

use flaml_store::{Storage, StorageError, StorageFile};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// The header line of a [`Log`]: it records the schema version the
/// records were written under.
pub trait LogHeader: Serialize + DeserializeOwned {
    /// The only schema version this build writes and reads. Replay
    /// feeds logged records back into live state, so a reader refuses
    /// any other version rather than misinterpret a field.
    const SCHEMA_VERSION: u32;

    /// The schema version this header records.
    fn schema_version(&self) -> u32;
}

/// Why a log could not be read. A torn or corrupt *record* is not here:
/// damage after a crash is expected, and [`Log::read`] handles it by
/// returning the maximal committed prefix. Only damage that leaves no
/// usable header is an error.
#[derive(Debug)]
pub enum LogError {
    /// No header line ever committed: the file is empty or its first
    /// line never got its newline (a crash before the first sync).
    Missing,
    /// The file could not be read.
    Storage(StorageError),
    /// A committed header line is not UTF-8 or does not parse.
    BadHeader(String),
    /// The header's schema version is not the one this reader speaks.
    SchemaVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Missing => write!(f, "log header never committed"),
            LogError::Storage(e) => write!(f, "log storage error: {e}"),
            LogError::BadHeader(msg) => write!(f, "bad log header: {msg}"),
            LogError::SchemaVersion { found, supported } => write!(
                f,
                "log schema version {found} is not supported (reader speaks {supported})"
            ),
        }
    }
}

impl std::error::Error for LogError {}

/// A log read back: the header, every committed record, and the byte
/// length of the committed prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct LogContents<H, R> {
    /// The header (first line of the file).
    pub header: H,
    /// Committed records, in commit order.
    pub records: Vec<R>,
    /// Length in bytes of the committed prefix (header + committed
    /// records, trailing newlines included). Pass it to [`Log::resume`],
    /// which truncates the file to it first, so a torn tail can never
    /// glue itself onto the next appended record.
    pub committed_bytes: u64,
}

/// An open log, appending records of type `R` after a header `H`.
#[derive(Debug)]
pub struct Log<H, R> {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    /// Bytes known durably committed (header + fsynced records).
    committed_len: u64,
    _format: PhantomData<fn(&H, &R)>,
}

impl<H: LogHeader, R: Serialize + DeserializeOwned> Log<H, R> {
    /// Creates (truncating) a log at `path` and durably writes its
    /// header. Parent directories are created as needed.
    ///
    /// # Errors
    ///
    /// Any storage failure creating, writing, or syncing.
    pub fn create(storage: &dyn Storage, path: &Path, header: &H) -> Result<Self, StorageError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                storage.create_dir_all(dir)?;
            }
        }
        let mut log = Log::from_file(storage.create(path)?, path, 0);
        log.write_line(header)?;
        Ok(log)
    }

    /// Reopens a log for appending after truncating it to
    /// `committed_bytes` (as reported by [`Log::read`]), discarding any
    /// torn tail. The header is not rewritten.
    ///
    /// # Errors
    ///
    /// Any storage failure truncating or opening.
    pub fn resume(
        storage: &dyn Storage,
        path: &Path,
        committed_bytes: u64,
    ) -> Result<Self, StorageError> {
        storage.truncate_file(path, committed_bytes)?;
        Ok(Log::from_file(storage.append(path)?, path, committed_bytes))
    }

    fn from_file(file: Box<dyn StorageFile>, path: &Path, committed_len: u64) -> Self {
        Log {
            file,
            path: path.to_path_buf(),
            committed_len,
            _format: PhantomData,
        }
    }

    /// Appends one record durably: it is synced before this returns.
    ///
    /// # Errors
    ///
    /// The storage failure; the file is first truncated back to its
    /// committed prefix so torn bytes never survive.
    pub fn append(&mut self, record: &R) -> Result<(), StorageError> {
        self.write_line(record)
    }

    fn write_line(&mut self, value: &impl Serialize) -> Result<(), StorageError> {
        let json = serde_json::to_string(value).map_err(|e| StorageError::Io {
            op: "serialize",
            path: self.path.clone(),
            source: io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        })?;
        let mut buf = json.into_bytes();
        buf.push(b'\n');
        let commit = (|| {
            self.file.write_all(&buf)?;
            self.file.sync_data()
        })();
        match commit {
            Ok(()) => {
                self.committed_len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                // If even the truncation fails, the reader's torn-tail
                // tolerance still covers recovery.
                let _ = self.file.truncate(self.committed_len);
                Err(e)
            }
        }
    }

    /// Bytes known durably committed so far.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Fsyncs any buffered bytes now, without appending a record.
    ///
    /// # Errors
    ///
    /// The storage failure.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()
    }

    /// Reads the log at `path`, tolerating a torn tail (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`LogError::Storage`] when the file cannot be read,
    /// [`LogError::Missing`] when no header line committed,
    /// [`LogError::BadHeader`] / [`LogError::SchemaVersion`] for a
    /// committed header that is unusable.
    pub fn read(storage: &dyn Storage, path: &Path) -> Result<LogContents<H, R>, LogError> {
        let bytes = storage.read(path).map_err(LogError::Storage)?;
        // Lines are split on raw bytes, so each committed line's length
        // is its on-disk length, whatever bytes a damaged line holds.
        let mut lines = bytes
            .split_inclusive(|&b| b == b'\n')
            .take_while(|line| line.ends_with(b"\n"));
        let header_line = lines.next().ok_or(LogError::Missing)?;
        let header: H = parse(header_line).map_err(LogError::BadHeader)?;
        if header.schema_version() != H::SCHEMA_VERSION {
            return Err(LogError::SchemaVersion {
                found: header.schema_version(),
                supported: H::SCHEMA_VERSION,
            });
        }
        let mut committed_bytes = header_line.len() as u64;
        let mut records = Vec::new();
        for line in lines {
            // The first damaged record ends the committed prefix:
            // everything after it is suspect.
            let Ok(record) = parse(line) else { break };
            records.push(record);
            committed_bytes += line.len() as u64;
        }
        Ok(LogContents {
            header,
            records,
            committed_bytes,
        })
    }
}

impl<H, R> Drop for Log<H, R> {
    fn drop(&mut self) {
        // Best-effort durability on shutdown: errors are unreportable
        // here and every committed append already synced itself.
        let _ = self.file.sync_data();
    }
}

/// Parses one newline-terminated line.
fn parse<T: DeserializeOwned>(line: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(&line[..line.len() - 1]).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}
