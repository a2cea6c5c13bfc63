//! In-memory spans recorded by the benchmark around its calls into the
//! crates, written out as JSON lines when the run ends. Nothing inside
//! the program is instrumented: a span's bounds are timestamps taken in
//! the benchmark's own code or in a public `EventSink` callback.
//!
//! Spans of one request or one trial share a `trace` id; each carries
//! the id of the span that caused it (`parent`). The top byte of a trace
//! id names the phase that recorded it, so phases never share a trace.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub trace: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// The current phase, already shifted into the top byte.
    phase: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            phase: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts phase `n`: the trace ids recorded from now on carry it.
    pub fn phase(&mut self, n: u8) {
        self.phase = u64::from(n) << 56;
    }

    /// Records a finished span and returns its id (0 when tracing is off).
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            trace: self.phase | trace,
            parent,
            name,
            start,
            end,
        });
        id
    }

    /// Sets the end of an open span recorded with `end == start`.
    pub fn finish(&mut self, id: u64, end: Instant) {
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end = end;
        }
    }

    /// Times `f` as a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(trace, parent, name, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Writes every span as one JSON line; returns how many.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.trace,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()?;
        Ok(self.spans.len())
    }
}
