//! The streaming phase: one client pushes `DriftStream` chunks in order to
//! `POST /tenants/{t}/stream/{s}` on an in-process server, each push
//! waiting for its ack (a closed loop). This drives the `online` layer,
//! its fsync'd event log and the drift-triggered challenger rounds.
//!
//! The chunks are a constant of the benchmark, like the searched data of
//! the search phase: every challenger round is a search, and its
//! cost swings with the data it searches.

use crate::http::Conn;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Report, Workdir};
use flaml_server::{
    DatasetPayload, Server, ServerConfig, StreamChunkRequest, StreamOptions, StreamPushResponse,
};
use flaml_synth::DriftStream;
use std::time::Instant;

/// Chunks one pass pushes. A run makes at least four passes, so over
/// 1000 pushes: the p99 lands on round-triggering pushes.
const CHUNKS: usize = 250;
/// Chunks per stationary segment: the concept shifts this often, and
/// each shift triggers a challenger round.
const SEGMENT_CHUNKS: usize = 25;
const PATH: &str = "/tenants/bench/stream/drift";
/// Seed of the stream's chunks and of its challenger searches.
const STREAM_SEED: u64 = 0;

struct Push {
    start: Instant,
    end: Instant,
    ack: Option<StreamPushResponse>,
}

impl Push {
    fn ms(&self) -> f64 {
        1e3 * (self.end - self.start).as_secs_f64()
    }

    fn round(&self) -> bool {
        self.ack.as_ref().is_some_and(|a| a.round.is_some())
    }
}

struct StreamPass {
    setup_s: f64,
    wall_s: f64,
    pushes: Vec<Push>,
    rounds: usize,
    promotions: usize,
    loss: f64,
}

fn make_bodies() -> Vec<String> {
    let stream = DriftStream {
        segment_chunks: SEGMENT_CHUNKS,
        ..DriftStream::new(STREAM_SEED)
    };
    (0..CHUNKS)
        .map(|i| {
            let request = StreamChunkRequest {
                options: (i == 0).then(|| StreamOptions {
                    seed: Some(STREAM_SEED),
                    ..StreamOptions::default()
                }),
                dataset: DatasetPayload::from_dataset(&stream.chunk(i)),
            };
            serde_json::to_string(&request).expect("chunks serialize")
        })
        .collect()
}

fn one_pass(work: &Workdir, pass: usize, report: &mut Report) -> Option<StreamPass> {
    let t0 = Instant::now();
    let cfg = ServerConfig {
        root: work.fresh(&format!("stream{pass}")),
        ..ServerConfig::default()
    };
    let started = Server::new(cfg).and_then(|s| s.start("127.0.0.1:0"));
    let bodies = make_bodies();
    let (server, addr) = match started {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("server start failed: {e}"));
            return None;
        }
    };
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            report.fail(format!("connect failed: {e}"));
            server.stop();
            return None;
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let mut raw = Vec::with_capacity(CHUNKS);
    let begin = Instant::now();
    for body in &bodies {
        let start = Instant::now();
        let result = conn.request("POST", PATH, body.as_bytes(), true);
        raw.push((start, Instant::now(), result));
    }
    let wall_s = begin.elapsed().as_secs_f64();
    server.stop();

    // Acks must come back in chunk order, each chunk exactly once.
    let mut pushes = Vec::with_capacity(CHUNKS);
    let (mut rounds, mut promotions, mut losses) = (0, 0, Vec::new());
    for (i, (start, end, result)) in raw.into_iter().enumerate() {
        report.attempted += 1;
        let ack = match result {
            Ok((200, body)) => std::str::from_utf8(&body)
                .ok()
                .and_then(|t| serde_json::from_str::<StreamPushResponse>(t).ok()),
            _ => None,
        };
        match &ack {
            Some(a) if a.chunk == i && !a.duplicate => {
                losses.extend(a.champion_loss);
                if let Some(r) = &a.round {
                    rounds += 1;
                    promotions += usize::from(r.promoted);
                }
            }
            Some(a) => report.fail(format!(
                "push {i} acked as chunk {} (duplicate: {})",
                a.chunk, a.duplicate
            )),
            None => report.fail(format!("push {i} failed")),
        }
        pushes.push(Push { start, end, ack });
    }
    let loss = losses.iter().sum::<f64>() / losses.len().max(1) as f64;
    Some(StreamPass {
        setup_s,
        wall_s,
        pushes,
        rounds,
        promotions,
        loss,
    })
}

struct EndToEnd {
    chunks_per_s: f64,
    p50: f64,
    p99: f64,
    loss: f64,
}

impl EndToEnd {
    fn of(passes: &[StreamPass]) -> EndToEnd {
        let lat: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.pushes.iter().map(Push::ms))
            .collect();
        let col = |f: fn(&StreamPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        EndToEnd {
            chunks_per_s: col(|p| p.pushes.len() as f64 / p.wall_s),
            p50: percentile(&lat, 0.5),
            p99: percentile(&lat, 0.99),
            loss: passes[0].loss,
        }
    }

    fn values(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("stream.chunks_per_s", self.chunks_per_s, "1/s"),
            ("stream.push_p50_ms", self.p50, "ms"),
            ("stream.push_p99_ms", self.p99, "ms"),
            ("stream.prequential_loss", self.loss, "logloss"),
        ]
    }
}

/// The streaming phase of one run: the passes so far.
pub struct Phase<'a> {
    work: &'a Workdir,
    started: usize,
    passes: Vec<StreamPass>,
    report: Report,
}

impl<'a> Phase<'a> {
    pub fn new(work: &'a Workdir) -> Phase<'a> {
        Phase {
            work,
            started: 0,
            passes: Vec::new(),
            report: Report::default(),
        }
    }

    /// The whole stream, pushed to a fresh server.
    pub fn pass(&mut self) {
        let pass = one_pass(self.work, self.started, &mut self.report);
        self.started += 1;
        self.passes.extend(pass);
    }

    /// Checks the passes and reports the phase's metrics.
    pub fn finish(self, tracer: &mut Tracer) -> Report {
        finish(&self.passes, self.report, tracer)
    }
}

fn finish(passes: &[StreamPass], mut report: Report, tracer: &mut Tracer) -> Report {
    if passes.is_empty() {
        return report;
    }
    let same = |a: &StreamPass, b: &StreamPass| {
        a.rounds == b.rounds && a.promotions == b.promotions && a.loss.to_bits() == b.loss.to_bits()
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        if !same(&passes[0], p) {
            report.fail(format!(
                "stream pass {i} did different work: {} rounds, {} promotions vs {}, {}",
                p.rounds, p.promotions, passes[0].rounds, passes[0].promotions
            ));
        }
    }
    let e2e = EndToEnd::of(passes);
    report.setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let n: usize = passes.iter().map(|p| p.pushes.len()).sum();
    report.notes.push(format!(
        "stream: {} passes; {n} pushes (p99 over {n}); {} rounds and {} promotions per pass",
        passes.len(),
        passes[0].rounds,
        passes[0].promotions
    ));
    if !tracer.on() {
        for (name, value, unit) in e2e.values() {
            report.push(name, value, unit);
        }
        return report;
    }

    // Spans from the timestamps every pass takes anyway: tracing does no
    // work during the load, so it has no overhead to report here.
    for (p, pass) in passes.iter().enumerate() {
        for (i, push) in pass.pushes.iter().enumerate() {
            let name = if push.round() {
                "stream.push.round"
            } else {
                "stream.push"
            };
            tracer.record((p * CHUNKS + i) as u64, None, name, push.start, push.end);
        }
    }
    let all: Vec<&Push> = passes.iter().flat_map(|p| &p.pushes).collect();
    let split = |round: bool| -> Vec<f64> {
        all.iter()
            .filter(|p| p.round() == round)
            .map(|p| p.ms())
            .collect()
    };
    let (plain, rounds) = (split(false), split(true));
    let total: f64 = all.iter().map(|p| p.ms()).sum();
    report.push("online.plain_push_p50_ms", median(&plain), "ms");
    report.push("online.round_push_p50_ms", median(&rounds), "ms");
    report.push("online.rounds", passes[0].rounds as f64, "count");
    report.push("online.promotions", passes[0].promotions as f64, "count");
    report.push(
        "online.round_share",
        rounds.iter().sum::<f64>() / total,
        "ratio",
    );
    report
}
