//! In-memory span recorder for the traced run, written out at the end
//! as Chrome trace-event JSON (open it in Perfetto or chrome://tracing).
//!
//! Spans are recorded by the benchmark around its calls into the
//! library's public functions; nothing inside the library is
//! instrumented. Every span carries the `(rank, step)` it belongs to;
//! the span with phase `step` bounds all others of the same pair.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    rank: usize,
    step: usize,
    layer: String,
    phase: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// Span sink. When disabled, `span` only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span that started at `start` and ends now.
    pub fn record(
        &self,
        rank: usize,
        step: usize,
        layer: &str,
        phase: &'static str,
        start: Instant,
    ) {
        self.record_between(rank, step, layer, phase, start, Instant::now());
    }

    /// Record a span over `[start, end]`.
    pub fn record_between(
        &self,
        rank: usize,
        step: usize,
        layer: &str,
        phase: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            rank,
            step,
            layer: layer.to_string(),
            phase,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans.lock().unwrap().push(span);
    }

    /// Run `f` inside a span; returns its result and its duration in
    /// seconds (measured whether or not tracing is on).
    pub fn span<R>(
        &self,
        rank: usize,
        step: usize,
        layer: &str,
        phase: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        self.record(rank, step, layer, phase, start);
        (r, secs)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Write every span as a complete ("X") trace event under one
    /// process named after the workload; ranks are threads.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().unwrap();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {{\"name\": \"{workload}\"}}}}"
        )?;
        for s in spans.iter() {
            write!(
                out,
                ",\n  {{\"name\": \"{layer}:{phase}\", \"cat\": \"{phase}\", \"ph\": \"X\", \
                 \"pid\": 1, \"tid\": {rank}, \"ts\": {ts:.3}, \"dur\": {dur:.3}, \
                 \"args\": {{\"workload\": \"{workload}\", \"rank\": {rank}, \"step\": {step}, \
                 \"layer\": \"{layer}\", \"phase\": \"{phase}\"}}}}",
                layer = s.layer,
                phase = s.phase,
                rank = s.rank,
                ts = s.start_us,
                dur = s.dur_us,
                step = s.step,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
