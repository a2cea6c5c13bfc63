//! The AutoML controller: FLAML's main loop (paper Figure 3).
//!
//! Step 0 chooses the resampling strategy once; then Steps 1–3 repeat
//! until the budget runs out: sample a learner with probability `∝ 1/ECI`,
//! let its proposer either grow the sample size (when `ECI1 >= ECI2`) or
//! ask FLOW² for new hyperparameters, run the trial, and feed the observed
//! error and cost back into ECI and FLOW². Step-size adaptation and
//! restarts are enabled only at the full sample size; a restart resets the
//! learner's sample size to the initial value.
//!
//! # Parallel execution
//!
//! Trials execute on a [`flaml_exec::ExecPool`] sized by
//! [`AutoMl::workers`]. With one worker (the default) everything runs
//! inline and the trace is identical to the historical sequential
//! controller. With more workers the parallelism goes to one of two
//! places:
//!
//! - **ECI selection** (FLAML proper): the next trial depends on the
//!   previous trial's outcome, so trials stay sequential and the workers
//!   evaluate CV folds concurrently inside each trial.
//! - **Round-robin selection** (the paper's ablation): consecutive
//!   trials touch *different* learners, whose proposals are independent,
//!   so the controller *speculatively* pre-executes the next up-to-`w`
//!   trials on idle workers and commits their results strictly in
//!   submission order. Under a virtual clock the committed trace is
//!   byte-identical at any worker count; speculative trials that a
//!   sequential run would never have started (budget already exhausted
//!   at commit time) are discarded, never fed back.

use crate::automl::{
    AutoMl, AutoMlError, AutoMlResult, LearnerSelection, ResampleChoice, TrialMode, TrialRecord,
};
use crate::clock::{BudgetClock, TrialInfo};
use crate::custom::Estimator;
use crate::dataplane::{DataPlane, PrepStats, TrialData};
use crate::eci::{sample_by_inverse_eci, EciState};
use crate::ensemble::{build_stacked, MemberSpec};
use crate::resample::{run_trial_prepared, ResampleStrategy, TrialOutcome, TrialStatus};
use crate::treecache::{TreeCache, TreeCacheStats, TreeKey, TrialBoost};
use flaml_data::{Dataset, Task};
use flaml_exec::{
    EventSink, ExecPool, FaultPlan, Job, JobResult, JobStatus, TrialEvent, TrialEventKind,
    TrialMeta,
};
use flaml_journal::{
    DatasetInfo, Journal, JournalHeader, JournalWriter, SharedJournalWriter, TrialLine,
    SCHEMA_VERSION,
};
use flaml_metrics::Metric;
use flaml_search::{Config, Flow2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

struct LearnerState {
    kind: Estimator,
    space: flaml_search::SearchSpace,
    flow2: Flow2,
    eci: EciState,
    sample_size: usize,
    /// Consecutive trials of this learner that ended with a non-finite
    /// final error (any status other than a usable value).
    consecutive_failures: usize,
    /// Whether the learner is currently quarantined: the ECI proposer
    /// skips it until the probe iteration arrives.
    quarantined: bool,
    /// Iteration at which a quarantined learner gets its next probe.
    probe_at: usize,
}

/// One proposed-but-not-yet-committed trial.
struct Proposal {
    /// Learner index into `states`.
    li: usize,
    /// 1-based trial number this proposal will commit as.
    trial_no: usize,
    mode: TrialMode,
    trial_s: usize,
    config: Config,
    seed: u64,
    /// Pure function of (learner, config): usable even when the trial
    /// itself panicked before reporting.
    cost_factor: f64,
    expected_fits: usize,
    /// The trial's prepared views and bin artifacts, built by the data
    /// plane at proposal time (on the controller thread, so cache state
    /// advances in deterministic proposal order). `None` during replay,
    /// which never executes.
    data: Option<Arc<TrialData>>,
    /// Cache hit/miss accounting for this trial's preparation.
    prep: PrepStats,
    /// The trial's warm-continuation plan when its fit is eligible for
    /// the tree cache: per-fold keys and cached prefixes, looked up at
    /// proposal time (controller thread, deterministic order). `None`
    /// for ineligible fits, replay, or a disabled cache — those run the
    /// plain fit path.
    boost: Option<TrialBoost>,
    /// Tree-cache hit/miss accounting for this trial's plan.
    tree_prep: TreeCacheStats,
}

/// Builds a trial event carrying a proposal's identity.
fn proposal_event(kind: TrialEventKind, p: &Proposal, learner: &str, config: &str) -> TrialEvent {
    let mut ev = TrialEvent::new(kind);
    ev.job_id = p.trial_no as u64;
    ev.learner = learner.to_string();
    ev.config = config.to_string();
    ev.sample_size = p.trial_s;
    ev
}

/// Turns one attempt's raw [`JobResult`] into a committed
/// [`TrialOutcome`]: folds the job-level status (pool timeout, pool-level
/// panic) into the trial status, applies the fault plan's poison for this
/// attempt, and sanitizes any non-finite loss so nothing downstream
/// (FLOW², ECI, the global best) can ever observe a `NaN`.
fn commit_outcome(
    result: JobResult<TrialOutcome>,
    p: &Proposal,
    fault_plan: Option<FaultPlan>,
    attempt: u32,
) -> (TrialOutcome, f64) {
    let measured = result.wall_secs;
    let trial_timed_out = result.status.timed_out();
    let mut outcome = match result.status {
        JobStatus::Finished(o) | JobStatus::TimedOut(o) => {
            let mut o = o;
            if trial_timed_out && o.status == TrialStatus::Ok {
                o.status = TrialStatus::TimedOut;
            }
            o
        }
        JobStatus::Panicked(msg) => TrialOutcome {
            error: f64::INFINITY,
            model: None,
            n_fits: p.expected_fits,
            cost_factor: p.cost_factor,
            status: TrialStatus::Panicked,
            message: Some(msg),
            fold_states: Vec::new(),
        },
    };
    if let Some(plan) = fault_plan {
        if let Some(bad) = plan.poison(p.trial_no as u64, attempt) {
            outcome.error = bad;
            outcome.model = None;
            outcome.status = TrialStatus::NonFiniteLoss;
            outcome.message = Some(format!(
                "injected fault: poisoned loss ({bad}) on attempt {attempt}"
            ));
        }
    }
    if outcome.error.is_nan() {
        outcome.error = f64::INFINITY;
        if outcome.status == TrialStatus::Ok || outcome.status == TrialStatus::TimedOut {
            outcome.status = TrialStatus::NonFiniteLoss;
        }
    }
    (outcome, measured)
}

/// Verifies that a journal's header matches the run asked to resume
/// from it. The time budget and trial cap are deliberately *not*
/// compared: passing a larger budget is how an interrupted (or even
/// finished) run is extended.
fn verify_resume_header(journal: &JournalHeader, run: &JournalHeader) -> Result<(), AutoMlError> {
    fn check(field: &'static str, journal: String, run: String) -> Result<(), AutoMlError> {
        if journal == run {
            Ok(())
        } else {
            Err(AutoMlError::ResumeMismatch {
                field,
                journal,
                run,
            })
        }
    }
    check("seed", journal.seed.to_string(), run.seed.to_string())?;
    check(
        "sample_size_init",
        journal.sample_size_init.to_string(),
        run.sample_size_init.to_string(),
    )?;
    check(
        "sampling",
        journal.sampling.to_string(),
        run.sampling.to_string(),
    )?;
    check(
        "learner_selection",
        journal.learner_selection.clone(),
        run.learner_selection.clone(),
    )?;
    check("resample", journal.resample.clone(), run.resample.clone())?;
    check("metric", journal.metric.clone(), run.metric.clone())?;
    check(
        "estimators",
        format!("{:?}", journal.estimators),
        format!("{:?}", run.estimators),
    )?;
    check(
        "time_source",
        journal.time_source.clone(),
        run.time_source.clone(),
    )?;
    check(
        "dataset task",
        journal.dataset.task.clone(),
        run.dataset.task.clone(),
    )?;
    check(
        "dataset fingerprint",
        format!("{:#018x}", journal.dataset.fingerprint),
        format!("{:#018x}", run.dataset.fingerprint),
    )?;
    Ok(())
}

/// One divergence check during replay: the re-proposed trial must equal
/// the journaled one in every identifying respect.
fn verify_replay_line(line: &TrialLine, p: &Proposal, learner: &str) -> Result<(), AutoMlError> {
    fn diverged(trial: usize, detail: String) -> AutoMlError {
        AutoMlError::ResumeDiverged { trial, detail }
    }
    if line.iter != p.trial_no {
        return Err(diverged(
            p.trial_no,
            format!(
                "journal records trial {}, replay proposed {}",
                line.iter, p.trial_no
            ),
        ));
    }
    if line.learner != learner {
        return Err(diverged(
            p.trial_no,
            format!(
                "journal learner {:?}, replay proposed {:?}",
                line.learner, learner
            ),
        ));
    }
    if line.mode != p.mode.name() {
        return Err(diverged(
            p.trial_no,
            format!(
                "journal mode {:?}, replay proposed {:?}",
                line.mode,
                p.mode.name()
            ),
        ));
    }
    if line.sample_size != p.trial_s {
        return Err(diverged(
            p.trial_no,
            format!(
                "journal sample size {}, replay proposed {}",
                line.sample_size, p.trial_s
            ),
        ));
    }
    if line.config_values != p.config.values() {
        return Err(diverged(
            p.trial_no,
            format!(
                "journal config {:?}, replay proposed {:?}",
                line.config_values,
                p.config.values()
            ),
        ));
    }
    Ok(())
}

pub(crate) fn run(data: &Dataset, settings: &AutoMl) -> Result<AutoMlResult, AutoMlError> {
    let roster = settings.roster();
    if roster.is_empty() {
        return Err(AutoMlError::NoEstimators);
    }
    let metric = settings
        .metric
        .unwrap_or_else(|| Metric::default_for(data.task()));
    let mut clock = BudgetClock::new(settings.time_source);
    let sink: Option<&EventSink> = settings.event_sink.as_ref();

    // Up-front input validation: fail fast with a typed error on datasets
    // no trial could ever learn from, and degrade gracefully on ones that
    // are salvageable (constant / all-NaN feature columns are dropped,
    // with a telemetry event recording which).
    if data.n_rows() < 2 {
        return Err(AutoMlError::TooFewRows {
            rows: data.n_rows(),
            needed: 2,
        });
    }
    if let Some(classes) = data.distinct_labels() {
        if classes < 2 {
            return Err(AutoMlError::DegenerateTarget {
                classes_present: classes,
            });
        }
    }
    let dropped = data.degenerate_columns();
    let cleaned: Dataset;
    let data: &Dataset = if dropped.is_empty() {
        data
    } else {
        cleaned = data
            .drop_columns(&dropped)
            .map_err(|_| AutoMlError::NoUsableFeatures)?;
        if let Some(sink) = sink {
            let mut ev = TrialEvent::new(TrialEventKind::Sanitized);
            ev.message = Some(format!(
                "dropped {} degenerate feature column(s): {:?}",
                dropped.len(),
                dropped
            ));
            sink.emit(ev);
        }
        &cleaned
    };

    let shuffled = data.shuffled_view(settings.seed);
    let n = shuffled.n_rows();
    let d = shuffled.n_features();

    let strategy = match settings.resample_choice {
        ResampleChoice::Auto => settings.resample_rule.choose(n, d, settings.time_budget),
        ResampleChoice::AlwaysCv => ResampleStrategy::Cv {
            folds: settings.resample_rule.cv_folds,
        },
        ResampleChoice::AlwaysHoldout => ResampleStrategy::Holdout {
            ratio: settings.resample_rule.holdout_ratio,
        },
    };

    // The zero-copy data plane: prepares each trial's views (and, for
    // binned learners, its bin artifacts) on the controller thread at
    // proposal time, memoizing them across trials. Caching is
    // observationally pure — cached artifacts are bit-identical to fresh
    // computation — so traces do not depend on the cache settings.
    let mut plane = DataPlane::new(
        shuffled.clone(),
        strategy,
        settings.prepared_cache,
        settings.prepared_cache_bytes,
    );

    // The cross-trial tree cache: fitted boosting prefixes memoized per
    // (config-without-`tree_num`, sample, fold) and continued by later
    // trials. Like the plane it is owned by the controller thread —
    // lookups at proposal time, store-backs at commit time — and it is
    // observationally pure (continuation is bit-identical to a cold
    // fit), so traces do not depend on it either.
    let mut tree_cache = TreeCache::new(settings.tree_cache, settings.tree_cache_bytes);
    let fingerprint = data.fingerprint();

    let init_s = if settings.sampling {
        settings.sample_size_init.min(n)
    } else {
        n
    };

    // Journal setup: on a fresh run, create the log and durably write its
    // header; on resume, read the old log back (verifying its header
    // against this run), queue its committed trials for replay, and
    // reopen it for appending (truncating any torn tail first). The
    // writer becomes an extra event sink fanned together with the user's.
    let mut replay: VecDeque<TrialLine> = VecDeque::new();
    let storage = settings.journal_storage();
    let mut shared_journal: Option<SharedJournalWriter> = None;
    let journal_sink: Option<EventSink> = if let Some(path) = &settings.journal_path {
        let header = JournalHeader {
            schema_version: SCHEMA_VERSION,
            seed: settings.seed,
            time_budget: settings.time_budget,
            max_trials: settings.header_max_trials.unwrap_or(settings.max_trials),
            sample_size_init: settings.sample_size_init,
            sampling: settings.sampling,
            learner_selection: settings.learner_selection.name().to_string(),
            resample: settings.resample_choice.name().to_string(),
            metric: metric.name().to_string(),
            estimators: roster.iter().map(|e| e.name()).collect(),
            time_source: settings.time_source.name().to_string(),
            dataset: DatasetInfo {
                name: data.name().to_string(),
                task: match data.task() {
                    Task::Binary => "binary".to_string(),
                    Task::MultiClass(k) => format!("multiclass{k}"),
                    Task::Regression => "regression".to_string(),
                },
                rows: n,
                features: d,
                fingerprint: data.fingerprint(),
            },
        };
        let writer = if settings.resume {
            let journal = Journal::read(storage.as_ref(), path)?;
            verify_resume_header(&journal.header, &header)?;
            let writer = JournalWriter::resume(storage.as_ref(), path, journal.committed_bytes)
                .map_err(AutoMlError::Durability)?;
            replay = journal.trials.into();
            writer
        } else {
            JournalWriter::create(storage.as_ref(), path, &header)
                .map_err(AutoMlError::Durability)?
        };
        // Keep a shared handle so a mid-run persistence failure (ENOSPC,
        // failed fsync) surfaces as a typed error after the search loop
        // instead of being silently swallowed by the sink.
        let shared = writer.into_shared();
        let sink = shared.sink();
        shared_journal = Some(shared);
        Some(sink)
    } else {
        None
    };
    let composed_sink: Option<EventSink> = match (settings.event_sink.clone(), journal_sink) {
        (Some(user), Some(journal)) => Some(EventSink::fanout(vec![user, journal])),
        (Some(user), None) => Some(user),
        (None, Some(journal)) => Some(journal),
        (None, None) => None,
    };
    let sink: Option<&EventSink> = composed_sink.as_ref();

    let mut states: Vec<LearnerState> = roster
        .iter()
        .enumerate()
        .map(|(idx, kind)| {
            let space = kind.space(n);
            let mut flow2 = Flow2::new(space.clone(), settings.seed ^ (0x1111 * (idx as u64 + 1)));
            flow2.set_adaptation(init_s >= n);
            LearnerState {
                kind: kind.clone(),
                space,
                flow2,
                // Pre-calibration placeholder; replaced after the first
                // trial measures the base cost.
                eci: EciState::new(kind.cost_constant()),
                sample_size: init_s,
                consecutive_failures: 0,
                quarantined: false,
                probe_at: 0,
            }
        })
        .collect();

    // Warm start: seed FLOW² threads and ECI priors from prior results
    // (typically a previous journal's per-learner best configurations).
    // Applied before any trial, so a resumed run that was originally
    // warm-started replays identically when given the same points.
    for (name, values, loss) in &settings.starting_points {
        if let Some(st) = states.iter_mut().find(|s| s.kind.name() == *name) {
            let config = Config::from(values.clone());
            let point = st.space.encode(&config);
            st.flow2.seed_point(&point);
            st.eci.set_prior_err(*loss);
        }
    }

    let fastest = states
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.kind
                .cost_constant()
                .total_cmp(&b.1.kind.cost_constant())
        })
        .map(|(i, _)| i)
        .expect("non-empty estimators");

    let workers = settings.workers.max(1);
    // Speculation only helps (and is only sound) when consecutive trials
    // are guaranteed to touch different learners: round-robin with at
    // least two learners. Otherwise the workers accelerate CV folds
    // inside each trial instead.
    let speculative = workers > 1
        && settings.learner_selection == LearnerSelection::RoundRobin
        && states.len() > 1;
    let trial_pool = ExecPool::new(if speculative { workers } else { 1 });
    let fold_pool = ExecPool::new(if speculative { 1 } else { workers });

    let mut rng = StdRng::seed_from_u64(settings.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut trials: Vec<TrialRecord> = Vec::new();
    let mut n_retries_total = 0usize;
    let mut n_quarantined = 0usize;
    let mut best: Option<(
        usize,
        Config,
        f64,
        Option<flaml_learners::FittedModel>,
        usize,
    )> = None;
    let mut iter = 0usize;

    'search: loop {
        if let Some(cap) = settings.max_trials {
            if iter >= cap {
                break;
            }
        }
        if iter > 0 && clock.elapsed() >= settings.time_budget {
            break;
        }

        // While journaled trials remain, the controller *replays* instead
        // of executing: proposals are generated exactly as live (so every
        // RNG advances identically), but outcomes and costs come from the
        // journal. Replay commits one trial at a time and emits no
        // events — the records are already on disk.
        let replaying = !replay.is_empty();

        // Steps 1 + 2: propose a batch of trials. Batch size is 1 unless
        // speculating; the first trial always runs alone (it calibrates
        // the base cost of every untried learner).
        let mut batch = if replaying {
            1
        } else if speculative && iter > 0 {
            workers.min(states.len())
        } else {
            1
        };
        if let Some(cap) = settings.max_trials {
            batch = batch.min(cap - iter);
        }
        let mut proposals: Vec<Proposal> = Vec::with_capacity(batch);
        for b in 0..batch {
            let it = iter + b;
            // Step 1: learner choice.
            let li = if it == 0 {
                // The paper first runs the fastest learner to calibrate
                // the base trial cost.
                fastest
            } else {
                match settings.learner_selection {
                    // Round-robin ignores quarantine so the speculative
                    // trace stays invariant across worker counts.
                    LearnerSelection::RoundRobin => it % states.len(),
                    LearnerSelection::Eci => {
                        let global_best = best
                            .as_ref()
                            .map(|(_, _, e, _, _)| *e)
                            .unwrap_or(f64::INFINITY);
                        // Quarantined learners sit out until their probe
                        // iteration; if everything is quarantined, fall
                        // back to the full roster (FairChance must hold).
                        let mut eligible: Vec<usize> = (0..states.len())
                            .filter(|&i| !states[i].quarantined || it >= states[i].probe_at)
                            .collect();
                        if eligible.is_empty() {
                            eligible = (0..states.len()).collect();
                        }
                        let ecis: Vec<f64> = eligible
                            .iter()
                            .map(|&i| states[i].eci.eci(global_best, settings.sample_growth))
                            .collect();
                        eligible[sample_by_inverse_eci(&ecis, rng.gen::<f64>())]
                    }
                }
            };
            if proposals.iter().any(|p| p.li == li) {
                // A proposal for this learner is already in flight; its
                // feedback must land before the learner proposes again.
                break;
            }
            // Step 2: hyperparameters and sample size.
            let (mode, trial_s, point) = {
                let st = &mut states[li];
                let grow_sample = st.eci.tried()
                    && st.sample_size < n
                    && st.eci.eci1() >= st.eci.eci2(settings.sample_growth);
                if grow_sample {
                    let s_new = ((st.sample_size as f64 * settings.sample_growth) as usize).min(n);
                    (TrialMode::SampleUp, s_new, st.flow2.best_point())
                } else {
                    (TrialMode::Search, st.sample_size, st.flow2.ask())
                }
            };
            let st = &states[li];
            let config = st.space.decode(&point);
            let cost_factor = st.kind.cost_factor(&config, &st.space);
            let (trial_data, prep) = if replaying {
                // Replayed trials never execute; skip preparation so
                // resume costs no data-plane work (and no cache churn).
                (None, PrepStats::default())
            } else {
                let (td, prep) = plane.prepare(trial_s, st.kind.max_bin(&config, &st.space));
                (Some(Arc::new(td)), prep)
            };
            // Tree-cache plan: per-fold prefix lookups, on the controller
            // thread so cache reads happen in deterministic proposal
            // order. The learner name is part of the key and a batch
            // never holds two proposals for one learner, so a batch's
            // lookups cannot depend on its own store-backs — accounting
            // is identical at any worker count.
            let boost = match (&trial_data, tree_cache.enabled()) {
                (Some(td), true) => st.kind.boost_params(&config, &st.space).map(|bp| {
                    let tree_idx = st.space.index_of("tree_num");
                    let mut stats = TreeCacheStats::default();
                    let mut keys = Vec::with_capacity(td.folds.len());
                    let mut warm = Vec::with_capacity(td.folds.len());
                    for fi in 0..td.folds.len() {
                        let key = TreeKey::new(
                            st.kind.name(),
                            config.values(),
                            tree_idx,
                            trial_s,
                            fi,
                            bp.max_bin,
                            fingerprint,
                        );
                        match tree_cache.get(&key) {
                            Some(s) => {
                                stats.tree_cache_hits += 1;
                                stats.trees_saved += s.rounds_done().min(bp.n_trees) * s.n_groups();
                                warm.push(Some(s));
                            }
                            None => {
                                stats.tree_cache_misses += 1;
                                warm.push(None);
                            }
                        }
                        keys.push(key);
                    }
                    (
                        TrialBoost {
                            params: bp,
                            keys,
                            warm,
                        },
                        stats,
                    )
                }),
                _ => None,
            };
            let (boost, tree_prep) = match boost {
                Some((tb, stats)) => (Some(tb), stats),
                None => (None, TreeCacheStats::default()),
            };
            proposals.push(Proposal {
                li,
                trial_no: it + 1,
                mode,
                trial_s,
                config,
                seed: settings.seed.wrapping_add(it as u64),
                cost_factor,
                expected_fits: strategy.fits_per_trial(),
                data: trial_data,
                prep,
                boost,
                tree_prep,
            });
        }

        // Step 3: run the batch and observe errors and costs.
        let deadline = if clock.is_wall() {
            let remaining = settings.time_budget - clock.elapsed();
            Some(Duration::from_secs_f64(remaining.max(0.05)))
        } else {
            None
        };
        if !replaying {
            if let Some(sink) = sink {
                for p in &proposals {
                    let st = &states[p.li];
                    sink.emit(proposal_event(
                        TrialEventKind::Started,
                        p,
                        &st.kind.name(),
                        &p.config.render(&st.space),
                    ));
                }
            }
        }
        let states_ref = &states;
        let fold_pool_ref = &fold_pool;
        let results: Vec<Option<JobResult<TrialOutcome>>> = if replaying {
            proposals.iter().map(|_| None).collect()
        } else {
            let jobs: Vec<Job<'_, TrialOutcome>> = proposals
                .iter()
                .map(|p| {
                    let st = &states_ref[p.li];
                    let td = p.data.as_deref().expect("live trials carry prepared data");
                    let job = Job::new(move |_ctx| {
                        run_trial_prepared(
                            td,
                            &st.kind,
                            &p.config,
                            &st.space,
                            strategy,
                            metric,
                            p.seed,
                            deadline,
                            fold_pool_ref,
                            p.boost.as_ref(),
                        )
                    })
                    .deadline(deadline);
                    match settings.fault_plan {
                        Some(plan) => plan.instrument(job, p.trial_no as u64, 0),
                        None => job,
                    }
                })
                .collect();
            trial_pool
                .run_batch(jobs, None)
                .into_iter()
                .map(Some)
                .collect()
        };

        // Commit strictly in submission order; feedback, budget charging
        // and stopping decisions all happen here, exactly as the
        // sequential controller interleaved them.
        let mut discarding = false;
        for (b, result) in results.into_iter().enumerate() {
            let p = &proposals[b];
            let is_replay = result.is_none();
            // The sequential controller re-checks the budget before every
            // trial after the first; a speculative result whose turn
            // arrives past the budget must be dropped, not fed back.
            if !discarding && b > 0 && clock.elapsed() >= settings.time_budget {
                discarding = true;
            }
            if discarding {
                if let (Some(sink), Some(result)) = (sink, &result) {
                    let st = &states[p.li];
                    let mut ev = proposal_event(
                        TrialEventKind::Finished,
                        p,
                        &st.kind.name(),
                        &p.config.render(&st.space),
                    );
                    ev.wall_secs = Some(result.wall_secs);
                    ev.message = Some("speculative trial discarded: budget exhausted".to_string());
                    sink.emit(ev);
                }
                continue;
            }
            // No events during replay: the journaled records already
            // describe these trials, and the journal sink must not write
            // them a second time.
            let sink: Option<&EventSink> = if is_replay { None } else { sink };

            let mut attempt_costs: Vec<f64> = Vec::new();
            let (mut outcome, cost, measured, n_retries_trial) = if let Some(result) = result {
                let (mut outcome, mut measured) = commit_outcome(result, p, settings.fault_plan, 0);
                let mut cost = {
                    let info = TrialInfo {
                        learner_cost_constant: states[p.li].kind.cost_constant(),
                        sample_size: p.trial_s,
                        n_features: d,
                        cost_factor: outcome.cost_factor,
                        n_fits: outcome.n_fits.max(1),
                    };
                    let c = clock.charge(&info, measured);
                    attempt_costs.push(c);
                    c
                };

                // Transient failures (panics, non-finite losses) get
                // retried on the trial's own budget: every attempt is
                // charged like a fresh evaluation, the fault plan
                // re-rolls per attempt, and deterministic failures /
                // timeouts are never retried. The retry runs inline as a
                // single-job batch, so it is panic-isolated and
                // identical in sequential and speculative modes.
                let mut attempt: u32 = 0;
                let mut n_retries_trial = 0usize;
                while outcome.status.transient()
                    && n_retries_trial < settings.max_retries
                    && clock.elapsed() < settings.time_budget
                {
                    attempt += 1;
                    n_retries_trial += 1;
                    if let Some(sink) = sink {
                        let st = &states[p.li];
                        let mut ev = proposal_event(
                            TrialEventKind::Retried,
                            p,
                            &st.kind.name(),
                            &p.config.render(&st.space),
                        );
                        ev.message =
                            Some(format!("retry {n_retries_trial} after {}", outcome.status));
                        sink.emit(ev);
                    }
                    let retry_deadline = if clock.is_wall() {
                        let remaining = settings.time_budget - clock.elapsed();
                        Some(Duration::from_secs_f64(remaining.max(0.05)))
                    } else {
                        None
                    };
                    // Vary the seed per attempt so a genuinely flaky fit
                    // gets a different draw, not a replay of the same
                    // failure.
                    let retry_seed = p
                        .seed
                        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64));
                    let st = &states[p.li];
                    let td = p.data.as_deref().expect("live trials carry prepared data");
                    // The warm plan is reused as-is: cache-eligible fits
                    // are seed-invariant, so the retry seed cannot change
                    // the continued tree sequence.
                    let job = Job::new(move |_ctx| {
                        run_trial_prepared(
                            td,
                            &st.kind,
                            &p.config,
                            &st.space,
                            strategy,
                            metric,
                            retry_seed,
                            retry_deadline,
                            fold_pool_ref,
                            p.boost.as_ref(),
                        )
                    })
                    .deadline(retry_deadline);
                    let job = match settings.fault_plan {
                        Some(plan) => plan.instrument(job, p.trial_no as u64, attempt),
                        None => job,
                    };
                    let retry_result = trial_pool
                        .run_batch(vec![job], None)
                        .pop()
                        .expect("one job in, one result out");
                    let (o, m) = commit_outcome(retry_result, p, settings.fault_plan, attempt);
                    let info = TrialInfo {
                        learner_cost_constant: states[p.li].kind.cost_constant(),
                        sample_size: p.trial_s,
                        n_features: d,
                        cost_factor: o.cost_factor,
                        n_fits: o.n_fits.max(1),
                    };
                    let c = clock.charge(&info, m);
                    attempt_costs.push(c);
                    cost += c;
                    measured += m;
                    outcome = o;
                }
                (outcome, cost, measured, n_retries_trial)
            } else {
                // Replay: the journaled record substitutes for execution.
                // The budget clock re-applies the recorded per-attempt
                // charges in order (reproducing the live run's float
                // accumulation bit-for-bit), and the recorded loss feeds
                // the proposers exactly as the live outcome did.
                let line = replay
                    .pop_front()
                    .expect("replaying implies a queued record");
                verify_replay_line(&line, p, &states[p.li].kind.name())?;
                for &c in &line.attempt_costs {
                    clock.advance(c);
                }
                let status = TrialStatus::parse(&line.status).unwrap_or(TrialStatus::Ok);
                let outcome = TrialOutcome {
                    error: line.loss,
                    model: None,
                    n_fits: p.expected_fits,
                    cost_factor: p.cost_factor,
                    status,
                    message: None,
                    fold_states: Vec::new(),
                };
                attempt_costs = line.attempt_costs;
                (outcome, line.cost, line.wall_secs, line.attempts)
            };
            n_retries_total += n_retries_trial;

            // Tree-cache store-back, in submission (= commit) order: each
            // fold's grown prefix replaces a shorter cached one. A
            // deadline-truncated continuation still lands here — its
            // completed prefix is valid and worth keeping. Replayed and
            // ineligible trials carry no states and store nothing.
            if let Some(tb) = &p.boost {
                for (key, state) in tb.keys.iter().zip(&outcome.fold_states) {
                    if let Some(state) = state {
                        tree_cache.store(key.clone(), state.clone());
                    }
                }
                tree_cache.observe(p.tree_prep);
            }

            // Feedback into the proposers.
            {
                let st = &mut states[p.li];
                match p.mode {
                    TrialMode::Search => {
                        st.flow2.tell(outcome.error);
                        st.eci.on_trial(cost, outcome.error);
                    }
                    TrialMode::SampleUp => {
                        st.sample_size = p.trial_s;
                        st.flow2.set_best_err(outcome.error);
                        let improved = st.eci.on_trial(cost, outcome.error);
                        if !improved && outcome.error.is_finite() {
                            // Errors are only comparable at the same sample
                            // size: rebase the learner's incumbent error. A
                            // failed (infinite) trial must not poison it, or
                            // the learner would never be selected again
                            // (Property 3, FairChance).
                            st.eci.rebase_err(outcome.error);
                        }
                        if st.sample_size >= n {
                            st.flow2.set_adaptation(true);
                        }
                    }
                }
                // Restart a converged thread (full sample size only).
                if st.sample_size >= n && st.flow2.converged() {
                    st.flow2.restart();
                    if settings.sampling {
                        st.sample_size = settings.sample_size_init.min(n);
                        st.flow2.set_adaptation(st.sample_size >= n);
                    }
                }
            }

            // Calibrate untried learners' ECI after the very first trial.
            if iter == 0 {
                for (i, st) in states.iter_mut().enumerate() {
                    if i != p.li {
                        st.eci.set_untried_estimate(cost * st.kind.cost_constant());
                    }
                }
            }

            // Global best bookkeeping.
            let improved_global = outcome.error.is_finite()
                && best
                    .as_ref()
                    .map(|(_, _, e, _, _)| outcome.error < *e)
                    .unwrap_or(true);
            if improved_global {
                best = Some((
                    p.li,
                    p.config.clone(),
                    outcome.error,
                    outcome.model.take(),
                    p.trial_s,
                ));
            }

            iter += 1;

            // Per-learner failure budget: consecutive non-finite trials
            // quarantine a learner (the ECI proposer skips it until its
            // next probe); any usable value lifts the quarantine. The
            // bookkeeping runs in every mode so traces stay deterministic,
            // but only ECI selection consults it.
            {
                let st = &mut states[p.li];
                if outcome.error.is_finite() {
                    st.consecutive_failures = 0;
                    if st.quarantined {
                        st.quarantined = false;
                        if let Some(sink) = sink {
                            let mut ev = proposal_event(
                                TrialEventKind::Unquarantined,
                                p,
                                &st.kind.name(),
                                "",
                            );
                            ev.message =
                                Some("probe trial succeeded; quarantine lifted".to_string());
                            sink.emit(ev);
                        }
                    }
                } else {
                    st.consecutive_failures += 1;
                    if st.quarantined {
                        // Failed probe: back to the bench until the next.
                        st.probe_at = iter + settings.quarantine_probe_every;
                    } else if settings.quarantine_after > 0
                        && st.consecutive_failures >= settings.quarantine_after
                    {
                        st.quarantined = true;
                        st.probe_at = iter + settings.quarantine_probe_every;
                        n_quarantined += 1;
                        if let Some(sink) = sink {
                            let mut ev =
                                proposal_event(TrialEventKind::Quarantined, p, &st.kind.name(), "");
                            ev.message = Some(format!(
                                "quarantined after {} consecutive failures; probe at trial {}",
                                st.consecutive_failures, st.probe_at
                            ));
                            sink.emit(ev);
                        }
                    }
                }
            }

            let eci_snapshot = if settings.learner_selection == LearnerSelection::Eci {
                let global_best = best
                    .as_ref()
                    .map(|(_, _, e, _, _)| *e)
                    .unwrap_or(f64::INFINITY);
                states
                    .iter()
                    .map(|s| {
                        (
                            s.kind.name(),
                            s.eci.eci(global_best, settings.sample_growth),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let rendered = p.config.render(&states[p.li].space);
            let best_err_so_far = best
                .as_ref()
                .map(|(_, _, e, _, _)| *e)
                .unwrap_or(f64::INFINITY);
            if let Some(sink) = sink {
                let kind = match outcome.status {
                    TrialStatus::Panicked => TrialEventKind::Panicked,
                    TrialStatus::TimedOut => TrialEventKind::TimedOut,
                    _ => TrialEventKind::Finished,
                };
                let mut ev = proposal_event(kind, p, &states[p.li].kind.name(), &rendered);
                ev.error = Some(outcome.error);
                ev.cost = Some(cost);
                ev.wall_secs = Some(measured);
                ev.message = outcome.message.clone();
                ev.prepared_hits = p.prep.prepared_hits;
                ev.prepared_misses = p.prep.prepared_misses;
                ev.prepared_evictions = p.prep.prepared_evictions;
                ev.bytes_copied_saved = p.prep.bytes_copied_saved;
                ev.tree_cache_hits = p.tree_prep.tree_cache_hits;
                ev.tree_cache_misses = p.tree_prep.tree_cache_misses;
                ev.trees_saved = p.tree_prep.trees_saved;
                ev.meta = Some(TrialMeta {
                    mode: p.mode.name().to_string(),
                    status: outcome.status.to_string(),
                    attempts: n_retries_trial,
                    attempt_costs: attempt_costs.clone(),
                    total_time: clock.elapsed(),
                    seed: p.seed,
                    config_values: p.config.values().to_vec(),
                    improved: improved_global,
                    best_error: best_err_so_far,
                });
                sink.emit(ev);
            }
            trials.push(TrialRecord {
                iter,
                learner: states[p.li].kind.name(),
                config: rendered,
                config_values: p.config.values().to_vec(),
                sample_size: p.trial_s,
                error: outcome.error,
                cost,
                total_time: clock.elapsed(),
                mode: p.mode,
                improved_global,
                best_error_so_far: best_err_so_far,
                eci_snapshot,
                timed_out: outcome.timed_out(),
                panicked: outcome.panicked(),
                status: outcome.status,
                n_retries: n_retries_trial,
            });
        }
        if discarding {
            break 'search;
        }
    }

    // A persistence failure invalidates the run even if the search
    // itself succeeded: the caller believes every committed trial is on
    // disk, and here that stopped being true. The writer already
    // truncated the journal back to its last committed record.
    if let Some(e) = shared_journal.as_ref().and_then(|s| s.take_error()) {
        return Err(AutoMlError::Durability(e));
    }

    let Some((best_li, best_config, best_error, trial_model, _best_s)) = best else {
        return Err(AutoMlError::NoViableModel);
    };
    let best_kind = states[best_li].kind.clone();
    let best_space = &states[best_li].space;

    // Final model: retrain the best configuration on the full training
    // data (CV trials defer training; holdout trials trained on 90% of a
    // sample). The refit budget is the time actually left — an exhausted
    // budget must not grant the refit extra time. Fall back to the
    // trial's model when nothing remains (or the refit fails); only when
    // there is no trial model either (CV defers its models) does the
    // refit get a minimal grace budget, since returning no model at all
    // would turn a finished search into an error.
    let remaining = if clock.is_wall() {
        Some((settings.time_budget - clock.elapsed()).max(0.0))
    } else {
        None
    };
    let out_of_budget = remaining.map(|r| r <= 0.0).unwrap_or(false);
    let refit_budget =
        remaining.map(|r| Duration::from_secs_f64(r.max(0.05).min(settings.time_budget)));
    let model = match (out_of_budget, trial_model) {
        (true, Some(m)) => m,
        (_, trial_model) => {
            match best_kind.fit(
                &shuffled,
                &best_config,
                best_space,
                settings.seed,
                refit_budget,
            ) {
                Ok(m) => m,
                Err(e) => match trial_model {
                    Some(m) => m,
                    None => return Err(AutoMlError::RefitFailed(e)),
                },
            }
        }
    };

    // Optional stacked-ensemble post-processing (paper appendix).
    let model = if settings.ensemble {
        let specs: Vec<MemberSpec> = states
            .iter()
            .filter(|st| st.eci.tried() && st.eci.best_err().is_finite())
            .map(|st| MemberSpec {
                kind: st.kind.clone(),
                config: st.space.decode(&st.flow2.best_point()),
                space: st.space.clone(),
                error: st.eci.best_err(),
            })
            .collect();
        build_stacked(&shuffled, specs, 4, 5, settings.seed, refit_budget).unwrap_or(model)
    } else {
        model
    };

    Ok(AutoMlResult {
        best_learner: best_kind.name(),
        best_config_rendered: best_config.render(best_space),
        best_config,
        best_error,
        model,
        trials,
        strategy,
        metric,
        n_retries: n_retries_total,
        n_quarantined,
    })
}
