//! Seeded end-to-end and per-layer benchmark for the flaml-rs workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --predict-rate 200 --publish-rate 20 --limit-ms 15 \
//!     --workload pipeline-small --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Every workload runs the same three phases: a search (`AutoMl::fit`),
//! serving (an open-loop predict and publish load on an in-process
//! server) and streaming (closed-loop pushes of a drifting stream). The
//! workloads differ in the table the search fits. Each phase has one
//! fixed unit of work (a pass); the phases take turns, one pass each,
//! until `--seconds` have been measured. Each phase checks every output
//! and reports its metrics; the run prints them as a human-readable table,
//! then one JSON object as the last line of standard output. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! same passes run, followed by the layer probes, and the metrics are
//! the per-layer ones. See `LAYERS.md` for which layer metric should
//! move which end-to-end metric on which workload.

mod http;
mod search;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line. The serve constants have no defaults: the
/// command in `BENCHMARK.json` is the one place that sets them, so they
/// are fixed for every run of every commit.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Open-loop `/predict` requests per second (serving phase).
    pub predict_rate: f64,
    /// Open-loop blob publishes per second (serving phase).
    pub publish_rate: f64,
    /// Latency limit a predict must meet to count towards goodput.
    pub limit_ms: f64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = String::new();
        let (mut seed, mut seconds, mut trace) = (1, None, false);
        let (mut predict_rate, mut publish_rate, mut limit_ms) = (None, None, None);
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"));
            match flag.as_str() {
                "--workload" => workload = value.to_string(),
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => seconds = Some(num(value)?),
                "--trace" => trace = value == "1",
                "--predict-rate" => predict_rate = Some(num(value)?),
                "--publish-rate" => publish_rate = Some(num(value)?),
                "--limit-ms" => limit_ms = Some(num(value)?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let required = |v: Option<f64>, flag: &str| {
            v.filter(|x| *x > 0.0)
                .ok_or_else(|| format!("{flag} is required and must be positive"))
        };
        Ok(Args {
            workload,
            seed,
            seconds: required(seconds, "--seconds")?,
            trace,
            predict_rate: required(predict_rate, "--predict-rate")?,
            publish_rate: required(publish_rate, "--publish-rate")?,
            limit_ms: required(limit_ms, "--limit-ms")?,
        })
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a phase hands back: its metrics plus the operation counts.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// The phase's median set-up time in seconds; the run's `setup_s`
    /// is the sum over its phases.
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, one line per failed check.
    pub errors: Vec<String>,
    /// Sample counts behind the percentiles, for the human table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check; the operation it guards counts as failed.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.errors.push(msg.into());
    }

    /// Adds a finished phase's metrics, counts and set-up time.
    fn absorb(&mut self, phase: Report) {
        self.metrics.extend(phase.metrics);
        self.setup_s += phase.setup_s;
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.errors.extend(phase.errors);
        self.notes.extend(phase.notes);
    }
}

/// Scratch space for one invocation, inside the checkout: server roots,
/// journals and the written-out trace. Removed (except the trace) on exit.
pub struct Workdir {
    pub root: PathBuf,
    pub tmp: PathBuf,
}

impl Workdir {
    fn new(workload: &str, seed: u64) -> std::io::Result<Workdir> {
        let root = PathBuf::from(".perfbench");
        let tmp = root.join(format!("tmp-{workload}-{seed}-{}", std::process::id()));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp)?;
        }
        std::fs::create_dir_all(&tmp)?;
        Ok(Workdir { root, tmp })
    }

    /// A fresh, empty directory under the scratch space.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Rounds of passes (one pass of each phase) a run makes at least: four
/// stream passes make over 1000 pushes, and a median of four passes
/// leaves out the two extremes.
const MIN_ROUNDS: usize = 4;

/// Runs `round` until `seconds` have elapsed, at least `min_rounds`
/// times.
fn repeat(seconds: f64, min_rounds: usize, mut round: impl FnMut()) {
    let started = Instant::now();
    let mut done = 0;
    while done < min_rounds || started.elapsed().as_secs_f64() < seconds {
        round();
        done += 1;
    }
}

fn json_line(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                serde_json::to_string(&m.name).expect("string"),
                m.value,
                serde_json::to_string(m.unit).expect("string")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match args.workload.as_str() {
        "pipeline-small" => search::Spec::small(),
        "pipeline-large" => search::Spec::large(),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let work = match Workdir::new(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new(args.trace);
    // The phases take turns, one pass each, so each phase's passes are
    // spread over the whole run and see the same host as the others.
    let mut search = search::Phase::new(spec, args.seed, &work);
    let mut serve = serve::Phase::new(&args, &work);
    let mut stream = stream::Phase::new(&work);
    repeat(args.seconds, MIN_ROUNDS, || {
        search.pass();
        serve.pass();
        stream.pass();
    });
    let mut report = Report::default();
    tracer.phase(1);
    report.absorb(search.finish(&mut tracer));
    tracer.phase(2);
    report.absorb(serve.finish(&work, &mut tracer));
    tracer.phase(3);
    report.absorb(stream.finish(&mut tracer));
    if !args.trace {
        report.push("setup_s", report.setup_s, "s");
        report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    let _ = std::fs::remove_dir_all(&work.tmp);
    if args.trace {
        let path = work
            .root
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans failed: {e}"),
        }
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.errors.is_empty() && report.failed == 0 && finite;
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &report.notes {
        println!("# {n}");
    }
    println!(
        "# operations: {} attempted, {} succeeded, {} failed",
        report.attempted,
        report.attempted.saturating_sub(report.failed),
        report.failed
    );
    if !finite {
        // JSON has no token for a non-finite number; report the run as
        // failed rather than print an unparseable result.
        eprintln!("perfbench: a metric is not finite");
        return ExitCode::from(1);
    }
    println!("{}", json_line(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
