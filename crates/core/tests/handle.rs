//! `SearchHandle` cooperative slicing: a search chopped into small
//! slices must leave the exact journal a single uninterrupted run
//! leaves — byte-identical canonical bytes under the virtual clock
//! (`wall_secs`, the one physical-time field, is excluded) — and a
//! handle attached to a half-finished journal (the crash path) must
//! continue it to the same bytes.

use flaml_core::{
    default_virtual_cost, AutoMl, AutoMlError, ChaosStorage, DiskStorage, IoFaultPlan, Journal,
    LearnerKind, SearchHandle, SliceOutcome, Storage, TimeSource,
};
use flaml_data::{Dataset, Task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn binary_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(x0[i] * 1.5 + (x1[i] - 0.4).powi(2) * 3.0 > 0.9))
        .collect();
    Dataset::new("handle-test", Task::Binary, vec![x0, x1], y).unwrap()
}

fn base() -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(5.0)
        .max_trials(18)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .seed(7)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("flaml_handle_{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn sliced_search_journal_is_byte_identical_to_single_shot() {
    let data = binary_dataset(600, 11);

    let reference_path = scratch("ref");
    let reference = base().journal(&reference_path).fit(&data).unwrap();

    let sliced_path = scratch("sliced");
    let mut handle = SearchHandle::new(base(), &sliced_path);
    let mut slices = 0;
    let result = loop {
        slices += 1;
        match handle.run_slice(&data, 4).unwrap() {
            SliceOutcome::Paused { committed, spent } => {
                assert_eq!(committed, handle.committed());
                assert!(spent > 0.0);
                assert!(!handle.is_finished());
            }
            SliceOutcome::Finished(result) => break result,
        }
    };
    assert!(slices > 2, "18 trials in slices of 4 must pause repeatedly");
    assert!(handle.is_finished());
    assert_eq!(result.trials.len(), reference.trials.len());
    assert_eq!(result.best_learner, reference.best_learner);
    assert_eq!(result.best_error.to_bits(), reference.best_error.to_bits());

    let reference_bytes = Journal::read(&DiskStorage, &reference_path)
        .unwrap()
        .canonical_bytes();
    let sliced_bytes = Journal::read(&DiskStorage, &sliced_path)
        .unwrap()
        .canonical_bytes();
    assert_eq!(
        reference_bytes, sliced_bytes,
        "sliced journal must be byte-identical to the single-shot journal"
    );
    let _ = std::fs::remove_file(&reference_path);
    let _ = std::fs::remove_file(&sliced_path);
}

#[test]
fn attach_continues_a_crashed_search_to_identical_bytes() {
    let data = binary_dataset(600, 11);

    let reference_path = scratch("crash_ref");
    base().journal(&reference_path).fit(&data).unwrap();

    // "Crash": run a few slices, then drop the handle on the floor.
    let crashed_path = scratch("crash");
    let mut first = SearchHandle::new(base(), &crashed_path);
    assert!(matches!(
        first.run_slice(&data, 5).unwrap(),
        SliceOutcome::Paused { committed: 5, .. }
    ));
    let mid = Journal::read(&DiskStorage, &crashed_path).unwrap();
    assert_eq!(mid.trials.len(), 5);
    drop(first);

    // A new process attaches to the journal and finishes the search.
    let mut second = SearchHandle::attach(base(), &crashed_path).unwrap();
    assert_eq!(second.committed(), 5);
    assert!(second.spent() > 0.0);
    let result = second.run_to_end(&data, 5).unwrap();
    assert_eq!(result.trials.len(), 18);

    assert_eq!(
        Journal::read(&DiskStorage, &reference_path)
            .unwrap()
            .canonical_bytes(),
        Journal::read(&DiskStorage, &crashed_path)
            .unwrap()
            .canonical_bytes(),
        "resumed journal must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_file(&reference_path);
    let _ = std::fs::remove_file(&crashed_path);
}

#[test]
fn attach_reads_the_journal_through_the_configured_storage() {
    let data = binary_dataset(300, 5);
    let path = scratch("storage");
    base().max_trials(4).journal(&path).fit(&data).unwrap();

    // A crashed storage refuses every read: attaching through it must
    // fail with a typed error, not read the journal from disk instead.
    let chaos = Arc::new(ChaosStorage::new(
        flaml_core::disk(),
        IoFaultPlan::new(0).crash_at(0),
    ));
    let _ = chaos.create_dir_all(&std::env::temp_dir());
    assert!(chaos.crashed());
    let err = SearchHandle::attach(base().storage(chaos), &path).unwrap_err();
    assert!(matches!(err, AutoMlError::Journal(_)), "{err}");

    let handle = SearchHandle::attach(base(), &path).unwrap();
    assert_eq!(handle.committed(), 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn budget_exhaustion_finishes_before_the_trial_cap() {
    let data = binary_dataset(600, 11);
    let path = scratch("budget");
    // A budget far too small for 18 trials: slicing must detect the
    // budget stop (fewer trials than the slice cap allows) and finish.
    let mut handle = SearchHandle::new(base().time_budget(0.05), &path);
    let result = handle.run_to_end(&data, 4).unwrap();
    assert!(handle.is_finished());
    assert!(
        result.trials.len() < 18,
        "0.05s of virtual budget cannot afford the full trial cap"
    );
    let _ = std::fs::remove_file(&path);
}
