//! Measuring the layers from outside the program: spans around calls into
//! public entry points, and timing wrappers around the public `Backend`
//! and `LanguageModel` traits at the bottom of the stack.
//!
//! Spans stay in memory while a run measures and are written out as JSON
//! lines when it ends ([`Tracer::write_jsonl`]).

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crowdprompt_oracle::backend::{Backend, CancelToken};
use crowdprompt_oracle::{CompletionRequest, CompletionResponse, LanguageModel, LlmError, Pricing};

/// Every lock here guards plain data that each update leaves whole; it is
/// poisoned only if a benchmark thread panicked, which fails the run.
pub const POISONED: &str = "a benchmark thread panicked while holding a lock";

/// One finished span: a call into a public entry point.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: Option<u64>,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span recorder shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect(POISONED).len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut spans = self.spans.lock().expect(POISONED).clone();
        spans.sort_by_key(|s| s.id);
        for s in spans {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.request),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// Times one call. With a tracer it also records a span, so traced and
/// untraced runs take the same timing path.
pub struct SpanTimer<'a> {
    tracer: Option<&'a Tracer>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: Option<u64>,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    pub fn start(
        tracer: Option<&'a Tracer>,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> Self {
        let id = tracer.map_or(0, |t| t.next_id.fetch_add(1, Ordering::Relaxed));
        SpanTimer {
            tracer,
            id,
            parent,
            name,
            request,
            start: Instant::now(),
        }
    }

    /// This span's id, to parent child spans on (`None` when untraced).
    pub fn id(&self) -> Option<u64> {
        self.tracer.map(|_| self.id)
    }

    /// Close the span; returns its duration in seconds.
    pub fn end(self) -> f64 {
        let end = Instant::now();
        if let Some(tracer) = self.tracer {
            tracer.spans.lock().expect(POISONED).push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                request: self.request,
                start_us: tracer.offset_us(self.start),
                end_us: tracer.offset_us(end),
            });
        }
        end.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// Counters of the `backend` layer, filled by [`TimedBackend`].
#[derive(Debug, Default)]
pub struct BackendProbe {
    pub attempts: AtomicU64,
    /// Attempts that returned an error other than a hedge cancellation.
    pub failed: AtomicU64,
    pub busy_ns: AtomicU64,
    attempt_us: Mutex<Vec<f64>>,
}

impl BackendProbe {
    /// Per-attempt durations in milliseconds.
    pub fn attempt_ms(&self) -> Vec<f64> {
        self.attempt_us
            .lock()
            .expect(POISONED)
            .iter()
            .map(|us| us / 1e3)
            .collect()
    }
}

/// A `Backend` that times every attempt of the backend it wraps.
pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    probe: Arc<BackendProbe>,
}

impl TimedBackend {
    pub fn wrap(inner: Arc<dyn Backend>, probe: &Arc<BackendProbe>) -> Arc<dyn Backend> {
        Arc::new(TimedBackend {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

impl Backend for TimedBackend {
    fn id(&self) -> &str {
        self.inner.id()
    }
    fn tier(&self) -> &str {
        self.inner.tier()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }
    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn complete(
        &self,
        request: &CompletionRequest,
        cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        let start = Instant::now();
        let result = self.inner.complete(request, cancel);
        let elapsed = start.elapsed();
        let p = &self.probe;
        p.attempts.fetch_add(1, Ordering::Relaxed);
        p.busy_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if matches!(&result, Err(e) if !matches!(e, LlmError::Cancelled)) {
            p.failed.fetch_add(1, Ordering::Relaxed);
        }
        p.attempt_us
            .lock()
            .expect(POISONED)
            .push(elapsed.as_secs_f64() * 1e6);
        result
    }
}

/// Counters of the `sim` layer, filled by [`TimedModel`].
#[derive(Debug, Default)]
pub struct ModelProbe {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// A `LanguageModel` that times every call into the model it wraps.
pub struct TimedModel {
    inner: Arc<dyn LanguageModel>,
    probe: Arc<ModelProbe>,
}

impl TimedModel {
    pub fn wrap(inner: Arc<dyn LanguageModel>, probe: &Arc<ModelProbe>) -> Arc<dyn LanguageModel> {
        Arc::new(TimedModel {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

impl LanguageModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let start = Instant::now();
        let result = self.inner.complete(request);
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        self.probe
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// The wrappers of one traced round: the model probe, one probe per
/// backend, and the tracer itself. `None` in untraced runs, which then
/// run the program unwrapped.
pub struct Probes<'a> {
    pub tracer: &'a Tracer,
    pub sim: Arc<ModelProbe>,
    pub backend: Arc<BackendProbe>,
}

impl<'a> Probes<'a> {
    pub fn new(tracer: &'a Tracer) -> Self {
        Probes {
            tracer,
            sim: Arc::default(),
            backend: Arc::default(),
        }
    }
}

/// Wrap the model when traced; pass it through untouched otherwise.
pub fn model(inner: Arc<dyn LanguageModel>, probes: Option<&Probes>) -> Arc<dyn LanguageModel> {
    match probes {
        Some(p) => TimedModel::wrap(inner, &p.sim),
        None => inner,
    }
}

/// Wrap a backend when traced; pass it through untouched otherwise. All
/// backends of a round share one probe: the `backend` layer is the fleet.
pub fn backend(inner: Arc<dyn Backend>, probes: Option<&Probes>) -> Arc<dyn Backend> {
    match probes {
        Some(p) => TimedBackend::wrap(inner, &p.backend),
        None => inner,
    }
}
