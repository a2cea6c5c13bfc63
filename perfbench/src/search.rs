//! The search phase: `AutoMl::fit` on the deterministic virtual clock,
//! so the trial trace is a pure function of the searched data and the
//! search seed, and wall time measures only speed. The workloads differ
//! in the table this phase searches (`Spec`).
//!
//! The searched data and the search seed are constants of the workload;
//! `--seed` generates the held-out rows that score the returned model.
//! One search's cost swings two- to tenfold with its data seed (which
//! learner wins decides whether the final retrain is a small GBDT or a
//! large forest), so a seeded training set would measure the seed, not
//! the code.

use crate::stats::{median, ratio, Digest};
use crate::trace::Tracer;
use crate::{Report, Workdir};
use flaml_core::{
    default_virtual_cost, fit_learner, sample_by_inverse_eci, AutoMl, AutoMlResult, EciState,
    EventSink, LearnerKind, ResampleChoice, TimeSource, TrialEvent, TrialEventKind,
};
use flaml_data::Dataset;
use flaml_learners::{BinMapper, PreparedSort};
use flaml_metrics::Pred;
use flaml_search::{Config, Flow2};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exec-pool workers: the load runs on at most two threads.
const WORKERS: usize = 2;
/// Seed of the searched data and of the search itself.
const SEARCH_SEED: u64 = 0;
/// friedman1 label noise (standard deviation).
const NOISE: f64 = 1.0;

/// The table one workload's search phase fits, and how.
pub struct Spec {
    rows: usize,
    test_rows: usize,
    features: usize,
    budget: f64,
    resample: ResampleChoice,
}

impl Spec {
    /// Tens of thousands of rows under holdout: GBDT histogram work and
    /// the final retrain dominate.
    pub fn large() -> Spec {
        Spec {
            rows: 20_000,
            test_rows: 50_000,
            features: 20,
            budget: 12.0,
            resample: ResampleChoice::AlwaysHoldout,
        }
    }

    /// A few hundred rows under 5-fold CV: per-trial fixed costs
    /// dominate.
    pub fn small() -> Spec {
        Spec {
            rows: 400,
            test_rows: 50_000,
            features: 6,
            budget: 100.0,
            resample: ResampleChoice::AlwaysCv,
        }
    }
}

/// One trial event as seen by the benchmark's `EventSink` callback.
struct Seen {
    at: Instant,
    kind: TrialEventKind,
    trial: u64,
    learner: String,
    wall_secs: f64,
    committed: bool,
    prepared: (usize, usize),
    tree_cache: (usize, usize),
}

impl Seen {
    fn of(ev: &TrialEvent) -> Seen {
        Seen {
            at: Instant::now(),
            kind: ev.kind,
            trial: ev.job_id,
            learner: ev.learner.clone(),
            wall_secs: ev.wall_secs.unwrap_or(0.0),
            committed: ev.meta.is_some(),
            prepared: (ev.prepared_hits, ev.prepared_misses),
            tree_cache: (ev.tree_cache_hits, ev.tree_cache_misses),
        }
    }
}

/// What one pass (one `fit`) did and how long it took.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    /// `fit` call to the last committed trial.
    search_s: f64,
    trials: usize,
    digest: u64,
    test_loss: f64,
    start: Instant,
    end: Instant,
    events: Vec<Seen>,
    result: Option<AutoMlResult>,
}

struct Data {
    train: Dataset,
    test: Dataset,
}

fn make_data(spec: &Spec, seed: u64) -> Data {
    Data {
        train: flaml_synth::friedman1(spec.rows, spec.features, NOISE, SEARCH_SEED),
        test: flaml_synth::friedman1(spec.test_rows, spec.features, NOISE, seed),
    }
}

fn trace_digest(result: &AutoMlResult) -> u64 {
    result
        .trials
        .iter()
        .fold(Digest::new(), |d, t| {
            let d = d
                .bytes(t.learner.as_bytes())
                .word(t.sample_size as u64)
                .word(t.error.to_bits())
                .word(t.cost.to_bits());
            t.config_values.iter().fold(d, |d, v| d.word(v.to_bits()))
        })
        .0
}

fn one_pass(
    spec: &Spec,
    seed: u64,
    journal: Option<&Path>,
    full_events: bool,
    report: &mut Report,
) -> Pass {
    let t0 = Instant::now();
    let data = make_data(spec, seed);
    let setup_s = t0.elapsed().as_secs_f64();

    // The untraced sink keeps only the last commit time (needed for the
    // search-phase throughput); the traced sink keeps every event.
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::default();
    let sink_seen = Arc::clone(&seen);
    let sink = EventSink::callback(move |ev| {
        if full_events || ev.meta.is_some() {
            let s = Seen::of(ev);
            let mut v = sink_seen.lock().expect("event buffer");
            if !full_events {
                v.clear();
            }
            v.push(s);
        }
    });
    let mut automl = AutoMl::new()
        .time_budget(spec.budget)
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .seed(SEARCH_SEED)
        .workers(WORKERS)
        .resample(spec.resample)
        .event_sink(sink);
    if let Some(path) = journal {
        automl = automl.journal(path);
    }
    report.attempted += 1;
    let start = Instant::now();
    let fitted = automl.fit(&data.train);
    let end = Instant::now();
    if let Some(path) = journal {
        let _ = std::fs::remove_file(path);
    }
    let events = std::mem::take(&mut *seen.lock().expect("event buffer"));
    let last_commit = events
        .iter()
        .rev()
        .find(|e| e.committed)
        .map_or(end, |e| e.at);
    let mut pass = Pass {
        setup_s,
        wall_s: (end - start).as_secs_f64(),
        search_s: (last_commit - start).as_secs_f64(),
        trials: 0,
        digest: 0,
        test_loss: f64::NAN,
        start,
        end,
        events,
        result: None,
    };
    let result = match fitted {
        Ok(r) => r,
        Err(e) => {
            report.fail(format!("fit failed: {e}"));
            return pass;
        }
    };
    pass.trials = result.trials.len();
    pass.digest = trace_digest(&result);
    pass.test_loss = test_loss(&result, &data, report);
    pass.result = Some(result);
    pass
}

/// The returned model's loss on the benchmark's held-out rows, checked
/// against a constant predictor (the training mean).
fn test_loss(result: &AutoMlResult, data: &Data, report: &mut Report) -> f64 {
    let y = data.test.target();
    let loss = result
        .metric
        .loss(&result.model.predict(&data.test), y)
        .unwrap_or(f64::NAN);
    let train_y = data.train.target();
    let mean = train_y.iter().sum::<f64>() / train_y.len() as f64;
    let baseline = result
        .metric
        .loss(&Pred::Values(vec![mean; y.len()]), y)
        .unwrap_or(f64::NAN);
    if !(loss.is_finite() && loss < baseline) {
        report.fail(format!(
            "test loss {loss} is not finite or not below the constant baseline {baseline}"
        ));
    }
    loss
}

/// The search phase of one run: its passes so far and their checks.
pub struct Phase {
    spec: Spec,
    seed: u64,
    /// Every search keeps a trial journal, as a durable search does.
    journal: PathBuf,
    passes: Vec<Pass>,
    report: Report,
}

impl Phase {
    pub fn new(spec: Spec, seed: u64, work: &Workdir) -> Phase {
        Phase {
            spec,
            seed,
            journal: work.fresh("journal").join("trials.jsonl"),
            passes: Vec::new(),
            report: Report::default(),
        }
    }

    /// One search.
    pub fn pass(&mut self) {
        let Phase {
            spec,
            seed,
            journal,
            report,
            ..
        } = self;
        let pass = one_pass(spec, *seed, Some(journal), false, report);
        self.passes.push(pass);
    }

    /// Checks the passes and reports the phase's metrics; with tracing
    /// on, runs the traced pass and the layer probes first.
    pub fn finish(self, tracer: &mut Tracer) -> Report {
        let Phase {
            spec,
            seed,
            journal,
            passes,
            report,
        } = self;
        finish(&spec, seed, &journal, &passes, report, tracer)
    }
}

fn finish(
    spec: &Spec,
    seed: u64,
    journal: &Path,
    passes: &[Pass],
    mut report: Report,
    tracer: &mut Tracer,
) -> Report {
    let journal = Some(journal);
    for p in &passes[1..] {
        same_work(&passes[0], p, "search pass", &mut report);
    }
    let e2e = EndToEnd::of(passes);
    report.setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    report.notes.push(format!(
        "search: {} passes of {} trials (digest {:016x}), best learner {}; wall s per pass: {}",
        passes.len(),
        passes[0].trials,
        passes[0].digest,
        passes[0]
            .result
            .as_ref()
            .map_or("-", |r| r.best_learner.as_str()),
        passes
            .iter()
            .map(|p| format!("{:.3}", p.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !tracer.on() {
        e2e.push(&mut report);
        return report;
    }

    // Traced pass: every event, spans from the event timestamps.
    let traced = one_pass(spec, seed, journal, true, &mut report);
    same_work(&passes[0], &traced, "traced search pass", &mut report);
    report.push("search.trials_per_s", e2e.trials_per_s, "1/s");
    e2e.overhead(&EndToEnd::of(std::slice::from_ref(&traced)), &mut report);
    event_layers(&traced, tracer, &mut report);

    // Journal cost: the same trace without the journal.
    let bare = one_pass(spec, seed, None, false, &mut report);
    same_work(
        &passes[0],
        &bare,
        "search pass without the journal",
        &mut report,
    );
    report.push("journal.cost_s", e2e.wall_s - bare.wall_s, "s");
    if let Some(result) = &traced.result {
        replay_layers(spec, result, tracer, &mut report);
        proposer_layers(traced.trials, &mut report);
    }
    report
}

/// The same-work guard: every pass of one invocation must run the same
/// trial trace and return the same model, or its timings are not
/// comparable.
fn same_work(first: &Pass, p: &Pass, what: &str, report: &mut Report) {
    if p.trials != first.trials || p.digest != first.digest {
        report.fail(format!(
            "{what} did different work: {} trials (digest {:016x}) vs {} ({:016x})",
            p.trials, p.digest, first.trials, first.digest
        ));
    }
    if p.test_loss.to_bits() != first.test_loss.to_bits() {
        report.fail(format!("{what} returned a different model"));
    }
}

struct EndToEnd {
    wall_s: f64,
    trials_per_s: f64,
    test_loss: f64,
}

impl EndToEnd {
    /// Medians over passes.
    fn of(passes: &[Pass]) -> EndToEnd {
        let col = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        EndToEnd {
            wall_s: col(|p| p.wall_s),
            trials_per_s: col(|p| p.trials as f64 / p.search_s),
            test_loss: passes[0].test_loss,
        }
    }

    /// The end-to-end metrics. Trials per second is a layer metric: over
    /// the short search part of a large-table pass it spread more between
    /// runs than any bound the benchmark can hold.
    fn push(&self, report: &mut Report) {
        report.push("search.wall_s", self.wall_s, "s");
        report.push("model.test_loss", self.test_loss, "1-r2");
    }

    /// Tracing overhead: traced minus untraced, per timed metric. The
    /// test loss has none: the same-work guard fails the run unless the
    /// traced pass returns the same model.
    fn overhead(&self, traced: &EndToEnd, report: &mut Report) {
        let wall_s = traced.wall_s - self.wall_s;
        report.push("trace_overhead.search.wall_s", wall_s, "s");
        let trials_per_s = traced.trials_per_s - self.trials_per_s;
        report.push("trace_overhead.search.trials_per_s", trials_per_s, "1/s");
    }
}

/// Layer numbers read off the traced pass's event timestamps.
fn event_layers(pass: &Pass, tracer: &mut Tracer, report: &mut Report) {
    let fit_span = tracer.record(0, None, "automl.fit", pass.start, pass.end);
    let mut started: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut intervals = Vec::new();
    let mut trial_s: BTreeMap<String, f64> = BTreeMap::new();
    let (mut prep, mut tree) = ((0, 0), (0, 0));
    for e in &pass.events {
        if e.kind == TrialEventKind::Started {
            started.entry(e.trial).or_insert(e.at);
        } else if e.committed {
            let begin = started.get(&e.trial).copied().unwrap_or(pass.start);
            tracer.record(e.trial + 1, Some(fit_span), "trial", begin, e.at);
            intervals.push((begin, e.at));
            *trial_s.entry(e.learner.clone()).or_default() += e.wall_secs;
            prep = (prep.0 + e.prepared.0, prep.1 + e.prepared.1);
            tree = (tree.0 + e.tree_cache.0, tree.1 + e.tree_cache.1);
        }
    }
    let last_commit = pass.start + Duration::from_secs_f64(pass.search_s);
    tracer.record(0, Some(fit_span), "retrain", last_commit, pass.end);

    // Controller self time: the search span minus the part of it that
    // some trial's span covers.
    intervals.sort();
    let mut covered = 0.0;
    let mut reach = pass.start;
    for (b, e) in intervals {
        let b = b.max(reach);
        if e > b {
            covered += (e - b).as_secs_f64();
            reach = e;
        }
    }
    report.push("core.search_s", pass.search_s, "s");
    report.push("core.controller_s", pass.search_s - covered, "s");
    report.push("core.retrain_s", pass.wall_s - pass.search_s, "s");
    // Only learners the search tried: a learner without trials has no
    // time to report (lr, on both workloads' regression data).
    for (name, s) in &trial_s {
        report.push(format!("learners.trial_s.{name}"), *s, "s");
    }
    report.push(
        "core.prepared_hit_ratio",
        ratio(prep.0, prep.0 + prep.1),
        "ratio",
    );
    report.push(
        "core.tree_cache_hit_ratio",
        ratio(tree.0, tree.0 + tree.1),
        "ratio",
    );
}

/// Replays the traced pass's committed trial configs single-threaded
/// through the binning, learner and metric layers directly.
fn replay_layers(spec: &Spec, result: &AutoMlResult, tracer: &mut Tracer, report: &mut Report) {
    let train = make_data(spec, SEARCH_SEED).train;
    // Hold out the tail of the training rows, as the search's holdout
    // (or one CV fold) does, and fit on a prefix of the rest sized like
    // the trial's sample.
    let n = train.n_rows();
    let n_fit = match spec.resample {
        ResampleChoice::AlwaysCv => n * 4 / 5,
        _ => n * 9 / 10,
    };
    let idx: Vec<usize> = (0..n).collect();
    let fit_rows = train.select(&idx[..n_fit]);
    let val = train.select(&idx[n_fit..]);
    let mut prefixes: BTreeMap<usize, Dataset> = BTreeMap::new();
    let (mut presort, mut bin) = (Vec::new(), Vec::new());
    let mut fit_s: BTreeMap<String, f64> = BTreeMap::new();
    let (mut predict_s, mut loss_s) = (0.0, 0.0);
    for t in &result.trials {
        let Some(kind) = LearnerKind::parse(&t.learner) else {
            report.fail(format!("unknown learner {:?} in the trace", t.learner));
            continue;
        };
        let rows = t.sample_size.clamp(1, n_fit);
        let data = prefixes
            .entry(rows)
            .or_insert_with(|| fit_rows.prefix(rows));
        let space = kind.space(n_fit);
        let config = Config::from(t.config_values.clone());
        let max_bin = space
            .index_of("max_bin")
            .map_or(255, |i| config.values()[i] as usize);
        // Bit 40 keeps replayed trials apart from the live trials' traces.
        let trace = 1 << 40 | t.iter as u64;
        let start = Instant::now();
        let span = tracer.record(trace, None, "replay.trial", start, start);
        let (_, s) = tracer.time(trace, Some(span), "replay.presort", || {
            std::hint::black_box(PreparedSort::compute(&*data))
        });
        presort.push(s);
        let (_, s) = tracer.time(trace, Some(span), "replay.bin", || {
            std::hint::black_box(BinMapper::fit(&*data, max_bin))
        });
        bin.push(s);
        let (model, s) = tracer.time(trace, Some(span), "replay.fit", || {
            fit_learner(kind, &*data, &config, &space, SEARCH_SEED, None)
        });
        *fit_s.entry(kind.name().to_string()).or_default() += s;
        let Ok(model) = model else {
            report.fail(format!("replayed trial {} failed to fit", t.iter));
            continue;
        };
        let (pred, s) = tracer.time(trace, Some(span), "replay.predict", || model.predict(&val));
        predict_s += s;
        let (loss, s) = tracer.time(trace, Some(span), "replay.loss", || {
            result.metric.loss(&pred, val.target())
        });
        loss_s += s;
        tracer.finish(span, Instant::now());
        if loss.is_err() {
            report.fail(format!("replayed trial {} could not be scored", t.iter));
        }
    }
    report.push("learners.presort_ms", 1e3 * median(&presort), "ms");
    report.push("learners.bin_ms", 1e3 * median(&bin), "ms");
    for (name, s) in &fit_s {
        report.push(format!("learners.fit_s.{name}"), *s, "s");
    }
    report.push("learners.predict_s", predict_s, "s");
    report.push("metrics.loss_s", loss_s, "s");
}

/// The paper's "lightweight" overhead: FLOW² ask/tell in the LightGBM
/// space and one ECI learner-choice step, as many steps as the run had
/// trials. Median of five repetitions, per step.
fn proposer_layers(steps: usize, report: &mut Report) {
    let steps = steps.max(1);
    let space = LearnerKind::LightGbm.space(10_000);
    let mut flow2 = Vec::new();
    let mut eci = Vec::new();
    for rep in 0..5 {
        let mut f = Flow2::new(space.clone(), SEARCH_SEED + rep);
        let start = Instant::now();
        for _ in 0..steps {
            let point = f.ask();
            // A smooth bowl centred off the initial point.
            let err: f64 = point.iter().map(|u| (u - 0.3) * (u - 0.3)).sum();
            f.tell(err);
        }
        flow2.push(start.elapsed().as_secs_f64() / steps as f64);

        let mut states: Vec<EciState> = LearnerKind::ALL
            .iter()
            .map(|_| EciState::new(1.0))
            .collect();
        let mut best = f64::INFINITY;
        let start = Instant::now();
        for step in 0..steps {
            let ecis: Vec<f64> = states.iter().map(|s| s.eci(best, 2.0)).collect();
            let u = ((step as f64 + 0.5) * 0.618_033_988_75).fract();
            let li = sample_by_inverse_eci(&ecis, u);
            let err = 1.0 / (1.0 + step as f64) + 0.01 * li as f64;
            states[li].on_trial(0.01 * (li + 1) as f64, err);
            best = best.min(err);
        }
        std::hint::black_box(&states);
        eci.push(start.elapsed().as_secs_f64() / steps as f64);
    }
    report.push("search.flow2_ask_tell_us", 1e6 * median(&flow2), "us");
    report.push("core.eci_step_us", 1e6 * median(&eci), "us");
}
