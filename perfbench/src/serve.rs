//! The serving phase: an in-process `flaml-server` with the default
//! config serves a published roster (GBDT, forest, linear, stacked) to an
//! open-loop schedule of `/predict` requests over two keep-alive
//! connections, while blob-artifact publishes arrive at a low fixed rate
//! over one-shot connections.

use crate::http::{one_shot, Conn};
use crate::stats::{median, percentile, Digest};
use crate::trace::Tracer;
use crate::{Args, Report, Workdir};
use flaml_bench::roster::{fit_roster, pred_bits};
use flaml_core::{
    atomic_write_file, encode_blob, BatchEngine, BlobModel, BlobOptions, CompiledModel,
    DiskStorage, ExecPool, ModelRegistry,
};
use flaml_data::{Dataset, Task};
use flaml_server::{PredictRequest, PredictResponse, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const TENANT: &str = "bench";
/// Seed of the roster's training set and of its fits. The served models
/// are a constant of the benchmark, like the searched data of the search
/// phase: `--seed` draws only the request rows and the schedule.
const ROSTER_SEED: u64 = 0;
/// Rows and features of the roster's training set.
const TRAIN_ROWS: usize = 2_000;
const FEATURES: usize = 10;
/// Request sizes in rows and their shares of the schedule. The sizes are
/// the load's definition; the shares are an assumption, not measured
/// traffic (no traffic trace is recorded in this repository). They keep
/// the cumulative shares (0.3, 0.9) clear of 0.5, so the median falls
/// inside one size class (r64) rather than on the boundary between two.
const SIZES: [(usize, &str, f64); 3] = [(1, "r1", 0.3), (64, "r64", 0.6), (1024, "r1024", 0.1)];
/// Distinct request bodies per (model, size): the schedule draws from
/// this pool, so every response can be checked against an in-process
/// prediction of the same rows.
const BODIES: usize = 4;
/// Length of one pass's open-loop schedule.
const PASS_SECONDS: f64 = 5.0;
/// Predict connections (keep-alive), each owning every other request.
const CONNECTIONS: usize = 2;
/// Set-ups per run. `setup_s` is their median; the last one serves
/// every pass.
const SETUPS: usize = 3;

struct Body {
    model: usize,
    size: usize,
    json: String,
    rows: Dataset,
}

/// Everything the passes serve: the constant roster and the request
/// bodies drawn from the seed.
struct Inputs {
    names: Vec<&'static str>,
    blobs: Vec<Vec<u8>>,
    bodies: Vec<Body>,
}

fn make_inputs(seed: u64) -> Inputs {
    let train = flaml_synth::friedman1(TRAIN_ROWS, FEATURES, 1.0, ROSTER_SEED);
    let roster = fit_roster(&train, ROSTER_SEED);
    let mut names = Vec::new();
    let mut blobs = Vec::new();
    for (name, model) in &roster {
        let compiled = CompiledModel::compile(model).expect("roster learners compile");
        names.push(*name);
        blobs.push(encode_blob(&compiled, BlobOptions::default()));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7276_6500_0000);
    let mut bodies = Vec::new();
    for (model, name) in names.iter().enumerate() {
        for (size, &(rows, _, _)) in SIZES.iter().enumerate() {
            for _ in 0..BODIES {
                let columns: Vec<Vec<f64>> = (0..FEATURES)
                    .map(|_| (0..rows).map(|_| rng.gen::<f64>()).collect())
                    .collect();
                let request = PredictRequest {
                    slot: name.to_string(),
                    columns: columns.clone(),
                };
                bodies.push(Body {
                    model,
                    size,
                    json: serde_json::to_string(&request).expect("requests serialize"),
                    rows: Dataset::new("rows", Task::Regression, columns, vec![0.0; rows])
                        .expect("request rows form a dataset"),
                });
            }
        }
    }
    Inputs {
        names,
        blobs,
        bodies,
    }
}

/// Digest of the roster blobs and request bodies a set-up built.
fn digest(inputs: &Inputs) -> u64 {
    let d = inputs.blobs.iter().fold(Digest::new(), |d, b| d.bytes(b));
    inputs
        .bodies
        .iter()
        .fold(d, |d, b| d.bytes(b.json.as_bytes()))
        .0
}

/// The open-loop schedule: request `i` is due at `i / rate` seconds and
/// carries body `schedule[i]`. Each size class gets exactly its share of
/// the requests and each class cycles through the models, so every seed
/// offers the same rows per second; the seed shuffles the order and
/// picks the bodies.
fn make_schedule(seed: u64, rate: f64, n_models: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7363_6865_6400_0000);
    let n = (PASS_SECONDS * rate).round() as usize;
    let mut schedule = Vec::with_capacity(n);
    for (size, &(_, _, share)) in SIZES.iter().enumerate() {
        let count = if size + 1 == SIZES.len() {
            n - schedule.len()
        } else {
            (n as f64 * share).round() as usize
        };
        for j in 0..count {
            let model = j % n_models;
            let k = rng.gen_range(0..BODIES);
            schedule.push((model * SIZES.len() + size) * BODIES + k);
        }
    }
    schedule.shuffle(&mut rng);
    schedule
}

/// One finished request as the load generator saw it.
struct Done {
    index: usize,
    due: Instant,
    sent: Instant,
    end: Instant,
    status: u16,
    body: Vec<u8>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        1e3 * (self.end - self.due).as_secs_f64()
    }
}

/// What the passes share: the inputs, the schedule and the server.
struct Load {
    inputs: Inputs,
    schedule: Vec<usize>,
    addr: SocketAddr,
}

impl Load {
    /// The request body a finished predict carried.
    fn body(&self, d: &Done) -> &Body {
        &self.inputs.bodies[self.schedule[d.index]]
    }
}

struct ServePass {
    elapsed_s: f64,
    predicts: Vec<Done>,
    publishes: Vec<Done>,
    stats_ms: f64,
}

fn publish_path(slot: &str) -> String {
    format!("/tenants/{TENANT}/slots/{slot}")
}

/// One set-up: the roster and request bodies, a fresh server with the
/// default config (except root and port), and the roster published to it.
fn set_up(
    args: &Args,
    work: &Workdir,
    i: usize,
    report: &mut Report,
) -> Option<(Inputs, Server, SocketAddr)> {
    let inputs = make_inputs(args.seed);
    if inputs.names.is_empty() {
        report.fail("the serving roster failed to fit");
        return None;
    }
    let cfg = ServerConfig {
        root: work.fresh(&format!("serve{i}")),
        ..ServerConfig::default()
    };
    let (server, addr) = match Server::new(cfg).and_then(|s| s.start("127.0.0.1:0")) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("server start failed: {e}"));
            return None;
        }
    };
    for (name, blob) in inputs.names.iter().zip(&inputs.blobs) {
        report.attempted += 1;
        match one_shot(addr, "POST", &publish_path(name), blob) {
            Ok((200, _)) => {}
            other => report.fail(format!("roster publish of {name} failed: {other:?}")),
        }
    }
    Some((inputs, server, addr))
}

fn one_pass(args: &Args, load: &Load, report: &mut Report) -> ServePass {
    let (schedule, inputs, addr) = (&load.schedule, &load.inputs, load.addr);
    let n_publish = (PASS_SECONDS * args.publish_rate).round() as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / args.predict_rate);
    let (predicts, publishes) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr).ok();
                    let mut out = Vec::new();
                    for i in (c..schedule.len()).step_by(CONNECTIONS) {
                        let at = due(i);
                        sleep_until(at);
                        let sent = Instant::now();
                        let body = inputs.bodies[schedule[i]].json.as_bytes();
                        let result = match conn.as_mut() {
                            Some(c) => {
                                c.request("POST", &format!("/tenants/{TENANT}/predict"), body, true)
                            }
                            None => Err(std::io::Error::other("no connection")),
                        };
                        let (status, body) = result.unwrap_or_else(|_| {
                            conn = Conn::open(addr).ok();
                            (0, Vec::new())
                        });
                        out.push(Done {
                            index: i,
                            due: at,
                            sent,
                            end: Instant::now(),
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        let publisher = scope.spawn(|| {
            let mut out = Vec::new();
            for j in 0..n_publish {
                // Offset by half a period so publishes interleave with,
                // rather than coincide with, predict send times.
                let at = start + Duration::from_secs_f64((j as f64 + 0.5) / args.publish_rate);
                sleep_until(at);
                let sent = Instant::now();
                // Always the GBDT blob: one artifact size, so publish
                // latency measures the path, not the roster's spread.
                let blob = &inputs.blobs[0];
                let (status, body) = one_shot(addr, "POST", &publish_path("published"), blob)
                    .unwrap_or((0, Vec::new()));
                out.push(Done {
                    index: j,
                    due: at,
                    sent,
                    end: Instant::now(),
                    status,
                    body,
                });
            }
            out
        });
        let mut predicts: Vec<Done> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread"))
            .collect();
        predicts.sort_by_key(|d| d.index);
        (predicts, publisher.join().expect("publisher thread"))
    });
    // Goodput's time base: the first due time to the last predict answer.
    let last = predicts.iter().map(|d| d.end).max().unwrap_or(start);
    let elapsed_s = (last - start).as_secs_f64();

    let mut stats = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        match one_shot(addr, "GET", "/stats", b"") {
            Ok((200, _)) => stats.push(1e3 * t.elapsed().as_secs_f64()),
            other => report.fail(format!("GET /stats failed: {other:?}")),
        }
    }
    verify(load, &predicts, &publishes, report);
    ServePass {
        elapsed_s,
        predicts,
        publishes,
        stats_ms: median(&stats),
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Every predict must return exactly the bits an in-process prediction
/// of the same rows on the same artifact gives; every publish must
/// succeed with a new version.
fn verify(load: &Load, predicts: &[Done], publishes: &[Done], report: &mut Report) {
    let inputs = &load.inputs;
    let models: Vec<BlobModel> = inputs
        .blobs
        .iter()
        .map(|b| BlobModel::from_bytes(b).expect("roster blobs open"))
        .collect();
    let mut expected: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for d in predicts {
        report.attempted += 1;
        let b = load.schedule[d.index];
        let want = expected.entry(b).or_insert_with(|| {
            let body = &inputs.bodies[b];
            pred_bits(&models[body.model].predict(&body.rows))
        });
        let got = std::str::from_utf8(&d.body)
            .ok()
            .and_then(|t| serde_json::from_str::<PredictResponse>(t).ok());
        match got {
            Some(r) if d.status == 200 => {
                let bits: Vec<u64> = r.values.iter().map(|v| v.to_bits()).collect();
                if bits != *want || r.rows != inputs.bodies[b].rows.n_rows() {
                    report.fail(format!(
                        "predict {} differs from the in-process prediction",
                        d.index
                    ));
                }
            }
            _ => report.fail(format!(
                "predict {} failed with status {}",
                d.index, d.status
            )),
        }
    }
    let mut last_version = 0;
    for d in publishes {
        report.attempted += 1;
        let version = std::str::from_utf8(&d.body)
            .ok()
            .and_then(|t| t.trim().strip_prefix("{\"version\":")?.strip_suffix('}'))
            .and_then(|n| n.parse::<u64>().ok());
        match version {
            Some(v) if d.status == 200 && v > last_version => last_version = v,
            _ => report.fail(format!(
                "publish {} failed with status {}",
                d.index, d.status
            )),
        }
    }
}

/// Latency percentile `q` of a list of finished requests, in ms.
fn latency(list: &[&Done], q: f64) -> f64 {
    percentile(&list.iter().map(|d| d.latency_ms()).collect::<Vec<_>>(), q)
}

/// Each figure is computed per pass (a pass has at least ten samples
/// beyond each percentile) and the median over passes is reported, so
/// one pass hit by a host stall does not set it.
fn end_to_end(load: &Load, passes: &[ServePass], limit_ms: f64, report: &mut Report) {
    let per_pass =
        |f: &dyn Fn(&ServePass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let lat = |list: &[Done], q: f64| latency(&list.iter().collect::<Vec<_>>(), q);
    report.push("predict.p50_ms", per_pass(&|p| lat(&p.predicts, 0.5)), "ms");
    report.push(
        "predict.p99_ms",
        per_pass(&|p| lat(&p.predicts, 0.99)),
        "ms",
    );
    let goodput = per_pass(&|p| {
        let rows: usize = p
            .predicts
            .iter()
            .filter(|d| d.status == 200 && d.latency_ms() <= limit_ms)
            .map(|d| load.body(d).rows.n_rows())
            .sum();
        rows as f64 / p.elapsed_s
    });
    report.push("predict.goodput_rows_per_s", goodput, "rows/s");
    report.push(
        "publish.p50_ms",
        per_pass(&|p| lat(&p.publishes, 0.5)),
        "ms",
    );
    report.push(
        "publish.p90_ms",
        per_pass(&|p| lat(&p.publishes, 0.9)),
        "ms",
    );
}

/// The serving phase of one run: the load, the server that serves it
/// and the passes so far.
pub struct Phase<'a> {
    args: &'a Args,
    served: Option<(Load, Server)>,
    setup_s: Vec<f64>,
    passes: Vec<ServePass>,
    report: Report,
}

impl<'a> Phase<'a> {
    /// Sets up `SETUPS` times; the last set-up's server serves every
    /// pass. After a failed set-up the phase runs no passes.
    pub fn new(args: &'a Args, work: &Workdir) -> Phase<'a> {
        let mut report = Report::default();
        let mut setup_s = Vec::new();
        let mut served: Option<(Inputs, Server, SocketAddr)> = None;
        for i in 0..SETUPS {
            let t0 = Instant::now();
            let Some(next) = set_up(args, work, i, &mut report) else {
                if let Some((_, server, _)) = served.take() {
                    server.stop();
                }
                break;
            };
            setup_s.push(t0.elapsed().as_secs_f64());
            if let Some((prev, server, _)) = served.replace(next) {
                server.stop();
                // The same-work guard: every set-up serves the same bytes.
                if digest(&prev) != digest(&served.as_ref().expect("set up").0) {
                    report.fail(format!("serve set-up {i} built a different roster"));
                }
            }
        }
        let served = served.map(|(inputs, server, addr)| {
            let schedule = make_schedule(args.seed, args.predict_rate, inputs.names.len());
            let load = Load {
                inputs,
                schedule,
                addr,
            };
            (load, server)
        });
        Phase {
            args,
            served,
            setup_s,
            passes: Vec::new(),
            report,
        }
    }

    /// One replay of the schedule.
    pub fn pass(&mut self) {
        if let Some((load, _)) = &self.served {
            let pass = one_pass(self.args, load, &mut self.report);
            self.passes.push(pass);
        }
    }

    /// Stops the server and reports the phase's metrics; with tracing
    /// on, runs the layer probes and the closed-loop probe first.
    pub fn finish(self, work: &Workdir, tracer: &mut Tracer) -> Report {
        let Phase {
            args,
            served,
            setup_s,
            passes,
            report,
        } = self;
        let Some((load, server)) = served else {
            return report;
        };
        let report = if passes.is_empty() {
            report
        } else {
            finish(args, &load, &passes, setup_s, report, work, tracer)
        };
        server.stop();
        report
    }
}

fn finish(
    args: &Args,
    load: &Load,
    passes: &[ServePass],
    setup_s: Vec<f64>,
    mut report: Report,
    work: &Workdir,
    tracer: &mut Tracer,
) -> Report {
    report.setup_s = median(&setup_s);
    report.notes.push(format!(
        "serve: {} passes on one server, each {} predicts at {}/s and {} publishes at {}/s \
         (percentiles per pass, median over passes); goodput limit {} ms",
        passes.len(),
        passes[0].predicts.len(),
        args.predict_rate,
        passes[0].publishes.len(),
        args.publish_rate,
        args.limit_ms
    ));
    for (size, &(_, tag, _)) in SIZES.iter().enumerate() {
        let class: Vec<&Done> = passes
            .iter()
            .flat_map(|p| &p.predicts)
            .filter(|d| load.body(d).size == size)
            .collect();
        report.notes.push(format!(
            "{tag}: {} predicts, latency p50 {:.3} p90 {:.3} p99 {:.3} max {:.3} ms",
            class.len(),
            latency(&class, 0.5),
            latency(&class, 0.9),
            latency(&class, 0.99),
            latency(&class, 1.0)
        ));
    }
    if !tracer.on() {
        end_to_end(load, passes, args.limit_ms, &mut report);
        return report;
    }

    // Spans from the timestamps every pass takes anyway: tracing does no
    // work during the load, so it has no overhead to report here.
    for (p, pass) in passes.iter().enumerate() {
        let kinds = [
            (&pass.predicts, 0u64, "predict.request", "predict.send"),
            (&pass.publishes, 1, "publish.request", "publish.send"),
        ];
        for (list, kind, request, send) in kinds {
            for d in list {
                let trace = (p as u64) << 33 | kind << 32 | d.index as u64;
                let span = tracer.record(trace, None, request, d.due, d.end);
                tracer.record(trace, Some(span), send, d.sent, d.end);
            }
        }
    }
    layer_probes(load, passes, work, &mut report);
    let late: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.predicts
                .iter()
                .map(|d| 1e3 * (d.sent - d.due).as_secs_f64())
        })
        .collect();
    report.push("loadgen.late_p99_ms", percentile(&late, 0.99), "ms");
    report.push(
        "serve.stats_ms",
        median(&passes.iter().map(|p| p.stats_ms).collect::<Vec<_>>()),
        "ms",
    );
    closed_loop(load, &mut report);
    report
}

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let s = Instant::now();
        f();
        t.push(s.elapsed().as_secs_f64());
    }
    median(&t)
}

/// Each server-side step of a request or a publish, called directly on
/// the exact bodies the load sent.
fn layer_probes(load: &Load, passes: &[ServePass], work: &Workdir, report: &mut Report) {
    let inputs = &load.inputs;
    let compiled: Vec<CompiledModel> = inputs
        .blobs
        .iter()
        .map(|b| {
            BlobModel::from_bytes(b)
                .expect("roster blobs open")
                .to_compiled()
        })
        .collect();
    let pool = ExecPool::new(ServerConfig::default().serve_workers);
    let engine = BatchEngine::new(&pool, ServerConfig::default().batch_rows);
    for (size, &(_, tag, _)) in SIZES.iter().enumerate() {
        let bodies: Vec<&Body> = inputs.bodies.iter().filter(|b| b.size == size).collect();
        let mut decode = Vec::new();
        let mut predict = Vec::new();
        let mut encode = Vec::new();
        for body in &bodies {
            decode.push(time_median(5, || {
                std::hint::black_box(serde_json::from_str::<PredictRequest>(&body.json).ok());
            }));
            let model = &compiled[body.model];
            let mut pred = None;
            predict.push(time_median(5, || {
                pred = Some(engine.predict("probe", model, &body.rows));
            }));
            let values = match pred.expect("predicted") {
                flaml_metrics::Pred::Values(v) => v,
                flaml_metrics::Pred::Probs { p, .. } => p,
            };
            let response = PredictResponse {
                rows: body.rows.n_rows(),
                n_classes: 1,
                values,
                version: 1,
                fingerprint: 0,
            };
            encode.push(time_median(5, || {
                std::hint::black_box(serde_json::to_string(&response).ok());
            }));
        }
        let (dec, pre, enc) = (
            1e3 * median(&decode),
            1e3 * median(&predict),
            1e3 * median(&encode),
        );
        let p50: f64 = percentile(
            &passes
                .iter()
                .flat_map(|p| p.predicts.iter())
                .filter(|d| load.body(d).size == size)
                .map(Done::latency_ms)
                .collect::<Vec<_>>(),
            0.5,
        );
        report.push(format!("server.decode_ms.{tag}"), dec, "ms");
        report.push(format!("serve.predict_ms.{tag}"), pre, "ms");
        report.push(format!("server.encode_ms.{tag}"), enc, "ms");
        report.push(
            format!("server.residual_ms.{tag}"),
            p50 - dec - pre - enc,
            "ms",
        );
    }

    let mut open = Vec::new();
    let mut write = Vec::new();
    let mut publish = Vec::new();
    let dir = work.fresh("probe-store");
    let registry = ModelRegistry::new();
    for (blob, model) in inputs.blobs.iter().zip(&compiled) {
        open.push(time_median(9, || {
            std::hint::black_box(BlobModel::from_bytes(blob).ok());
        }));
        let path = dir.join("artifact.bin");
        write.push(time_median(9, || {
            atomic_write_file(&DiskStorage, &path, blob).expect("probe write");
        }));
        let mut t = Vec::new();
        for _ in 0..9 {
            let m = model.clone();
            let s = Instant::now();
            std::hint::black_box(registry.publish("probe", m));
            t.push(s.elapsed().as_secs_f64());
        }
        publish.push(median(&t));
    }
    report.push("blob.open_ms", 1e3 * median(&open), "ms");
    report.push("store.atomic_write_ms", 1e3 * median(&write), "ms");
    report.push("serve.registry_publish_us", 1e6 * median(&publish), "us");
}

/// Closed-loop capacity: both connections send their next request as
/// soon as the previous answer arrives, over the same request mix. The
/// open-loop rate in `BENCHMARK.json` is a small share of this.
fn closed_loop(load: &Load, report: &mut Report) {
    let (inputs, schedule, addr) = (&load.inputs, &load.schedule, load.addr);
    let window = Duration::from_secs(2);
    let start = Instant::now();
    let sent: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let Ok(mut conn) = Conn::open(addr) else {
                        return 0;
                    };
                    let mut n = 0;
                    let mut i = c;
                    while start.elapsed() < window {
                        let body = inputs.bodies[schedule[i % schedule.len()]].json.as_bytes();
                        match conn.request(
                            "POST",
                            &format!("/tenants/{TENANT}/predict"),
                            body,
                            true,
                        ) {
                            Ok((200, _)) => n += 1,
                            _ => break,
                        }
                        i += CONNECTIONS;
                    }
                    n
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop thread"))
            .sum()
    });
    report.push(
        "serve.closed_loop_rps",
        sent as f64 / start.elapsed().as_secs_f64(),
        "1/s",
    );
}
