//! Per-tenant journal discovery: scan a journal root for resumable
//! runs.
//!
//! A multi-tenant service lays journals out as
//! `root/<tenant>/<run>.jsonl`; standalone tools write `root/<run>.jsonl`
//! directly. [`discover`] walks one level of either layout, reads each
//! journal's committed prefix, and returns every run that could be
//! resumed — skipping files that are not journals (bad header, wrong
//! schema, unreadable) rather than failing the whole scan, because a
//! recovery pass must come up even when one tenant's directory is
//! damaged.

use crate::reader::Journal;
use crate::record::JournalHeader;
use flaml_store::{Storage, StorageError};
use std::path::{Path, PathBuf};

/// One journal found under a discovery root.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredJournal {
    /// Absolute (as given) path of the journal file.
    pub path: PathBuf,
    /// Owning tenant — the immediate subdirectory name — or `None` for
    /// a journal sitting directly in the root.
    pub tenant: Option<String>,
    /// The run name: the journal file's stem (`root/t/abc.jsonl` → `abc`).
    pub run: String,
    /// The journal's header record.
    pub header: JournalHeader,
    /// Committed trials currently on disk.
    pub trials: usize,
    /// Byte length of the committed prefix (pass to
    /// [`crate::JournalWriter::resume`]).
    pub committed_bytes: u64,
}

/// Scans `root` (one directory level deep) through `storage` for
/// resumable journals. Returns them sorted by `(tenant, run)` so
/// recovery order is deterministic. A missing root is an empty scan,
/// not an error.
///
/// # Errors
///
/// Returns a typed storage failure only if listing a directory fails;
/// individual files that cannot be read or parsed as journals are
/// skipped.
pub fn discover(
    storage: &dyn Storage,
    root: impl AsRef<Path>,
) -> Result<Vec<DiscoveredJournal>, StorageError> {
    let root = root.as_ref();
    let mut found = Vec::new();
    for path in storage.scan(root)? {
        if storage.is_dir(&path) {
            let tenant = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            for sub in storage.scan(&path)? {
                probe(storage, &sub, Some(&tenant), &mut found);
            }
        } else {
            probe(storage, &path, None, &mut found);
        }
    }
    found.sort_by(|a, b| (&a.tenant, &a.run).cmp(&(&b.tenant, &b.run)));
    Ok(found)
}

fn probe(
    storage: &dyn Storage,
    path: &Path,
    tenant: Option<&str>,
    found: &mut Vec<DiscoveredJournal>,
) {
    if storage.is_dir(path) || path.extension().is_none_or(|e| e != "jsonl") {
        return;
    }
    let Ok(journal) = Journal::read(storage, path) else {
        return; // not a journal (bad header / schema / unreadable)
    };
    let run = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    found.push(DiscoveredJournal {
        path: path.to_path_buf(),
        tenant: tenant.map(str::to_string),
        run,
        header: journal.header,
        trials: journal.trials.len(),
        committed_bytes: journal.committed_bytes,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DatasetInfo, SCHEMA_VERSION};
    use crate::writer::JournalWriter;
    use flaml_store::DiskStorage;

    fn header(seed: u64) -> JournalHeader {
        JournalHeader {
            schema_version: SCHEMA_VERSION,
            seed,
            time_budget: 1.0,
            max_trials: None,
            sample_size_init: 10,
            sampling: false,
            learner_selection: "eci".into(),
            resample: "auto".into(),
            metric: "".into(),
            estimators: vec!["lr".into()],
            time_source: "virtual".into(),
            dataset: DatasetInfo {
                name: "d".into(),
                task: "binary".into(),
                rows: 10,
                features: 2,
                fingerprint: seed,
            },
        }
    }

    #[test]
    fn discovers_tenant_and_root_journals_sorted() {
        let root = std::env::temp_dir().join("flaml-journal-discover-test");
        std::fs::remove_dir_all(&root).ok();
        JournalWriter::create(
            &DiskStorage,
            root.join("b-tenant").join("run2.jsonl"),
            &header(2),
        )
        .unwrap();
        JournalWriter::create(
            &DiskStorage,
            root.join("a-tenant").join("run1.jsonl"),
            &header(1),
        )
        .unwrap();
        JournalWriter::create(&DiskStorage, root.join("loose.jsonl"), &header(3)).unwrap();
        // Distractors: wrong extension, garbage content, empty tenant dir.
        std::fs::write(root.join("a-tenant").join("note.txt"), "hi").unwrap();
        std::fs::write(root.join("b-tenant").join("broken.jsonl"), "not json\n").unwrap();
        std::fs::create_dir_all(root.join("idle-tenant")).unwrap();

        let runs = discover(&DiskStorage, &root).unwrap();
        let summary: Vec<(Option<&str>, &str, u64)> = runs
            .iter()
            .map(|d| (d.tenant.as_deref(), d.run.as_str(), d.header.seed))
            .collect();
        assert_eq!(
            summary,
            vec![
                (None, "loose", 3),
                (Some("a-tenant"), "run1", 1),
                (Some("b-tenant"), "run2", 2),
            ]
        );
        assert!(runs.iter().all(|d| d.trials == 0));
        assert!(runs.iter().all(|d| d.committed_bytes > 0));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_root_is_empty() {
        let root = std::env::temp_dir().join("flaml-journal-discover-missing");
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(discover(&DiskStorage, &root).unwrap(), Vec::new());
    }
}
