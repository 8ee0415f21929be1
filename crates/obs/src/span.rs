//! The span guard: one clock-read pair per timed interval, shared by the
//! per-phase latency histogram and the flight recorder.
//!
//! A [`Span`] reads the clock once when it starts and once when it ends —
//! explicitly via [`Span::finish`], or on drop, so early returns and `?`
//! propagation are still measured. From that one pair it records the
//! elapsed milliseconds into its phase [`HistogramHandle`] (a no-op for a
//! disconnected handle) and, when it was started under a [`SpanParent`],
//! a [`SpanRecord`] into the tracer's flight recorder with id
//! `derive_span_id(trace_id, name, index)`. Hand-rolled: the build is
//! offline, so there is no `tracing` crate.
//!
//! Spans that do not nest lexically (a per-query root closed after its
//! batch) use [`Tracer::record_span_at`] instead.

use std::mem::ManuallyDrop;
use std::time::Instant;

use crate::registry::HistogramHandle;
use crate::trace::{derive_span_id, RecordKind, SpanRecord, TraceContext, Tracer, NO_ARGS};

/// Where a span's flight-recorder record goes: a tracer, a category, and
/// the trace and parent span the record nests under.
#[derive(Debug, Clone, Copy)]
pub struct SpanParent<'t> {
    tracer: &'t Tracer,
    cat: &'static str,
    ctx: TraceContext,
}

impl<'t> SpanParent<'t> {
    /// Spans started under this parent record into `tracer` with category
    /// `cat`, in trace `trace_id`, under span `parent_span` (0 = root).
    #[must_use]
    pub fn new(tracer: &'t Tracer, cat: &'static str, trace_id: u64, parent_span: u64) -> Self {
        let ctx = TraceContext {
            trace_id,
            parent_span,
        };
        SpanParent { tracer, cat, ctx }
    }

    /// The trace and parent span id children are recorded under.
    #[must_use]
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// A trace-only span `name` (repeat `index`) under this parent.
    pub fn child(self, name: &'static str, index: u64) -> Span<'t> {
        let start = Instant::now();
        Span {
            hist: None,
            trace: Some(self.record(name, index, start)),
            start,
        }
    }

    fn record(self, name: &'static str, index: u64, start: Instant) -> (&'t Tracer, SpanRecord) {
        let rec = SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: derive_span_id(self.ctx.trace_id, name, index),
            parent_id: self.ctx.parent_span,
            name,
            cat: self.cat,
            kind: RecordKind::Span,
            ts_us: self.tracer.micros_at(start),
            dur_us: 0,
            args: NO_ARGS,
        };
        (self.tracer, rec)
    }
}

/// An in-flight timed interval; see the module docs.
#[derive(Debug)]
#[must_use = "a span measures until it is finished or dropped"]
pub struct Span<'a> {
    hist: Option<&'a HistogramHandle>,
    trace: Option<(&'a Tracer, SpanRecord)>,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing now, recording into `hist` when the span ends.
    pub fn new(hist: &'a HistogramHandle) -> Self {
        Span::since(hist, Instant::now())
    }

    /// A span that started at `start` (an instant the caller already
    /// read, e.g. when a queued job was admitted).
    pub fn since(hist: &'a HistogramHandle, start: Instant) -> Self {
        Span {
            hist: Some(hist),
            trace: None,
            start,
        }
    }

    /// Also records this span as `name` (repeat `index`) under `parent`,
    /// from the same start instant; a no-op for `None`.
    pub fn traced(
        mut self,
        parent: Option<SpanParent<'a>>,
        name: &'static str,
        index: u64,
    ) -> Self {
        self.trace = parent.map(|p| p.record(name, index, self.start));
        self
    }

    /// Attaches an integer argument to the trace record (two slots;
    /// extras are ignored, as is any argument of an untraced span).
    pub fn arg(mut self, name: &'static str, value: u64) -> Self {
        if let Some((_, rec)) = &mut self.trace {
            if let Some(slot) = rec.args.iter_mut().find(|slot| slot.0.is_empty()) {
                *slot = (name, value);
            }
        }
        self
    }

    /// The parent for spans nested under this one (`None` if untraced).
    #[must_use]
    pub fn context(&self) -> Option<SpanParent<'a>> {
        self.trace
            .map(|(tracer, rec)| SpanParent::new(tracer, rec.cat, rec.trace_id, rec.span_id))
    }

    /// Ends the span now and returns its duration in milliseconds (the
    /// value recorded into the histogram).
    pub fn finish(self) -> f64 {
        ManuallyDrop::new(self).close()
    }

    fn close(&mut self) -> f64 {
        let end = Instant::now();
        let ms = end.duration_since(self.start).as_secs_f64() * 1e3;
        if let Some(hist) = self.hist {
            hist.record(ms);
        }
        if let Some((tracer, mut rec)) = self.trace {
            rec.dur_us = tracer.micros_at(end).saturating_sub(rec.ts_us);
            tracer.recorder().record(rec);
        }
        ms
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::trace::{derive_trace_id, TraceConfig, DOMAIN_TRAIN_STEP};

    #[test]
    fn one_clock_pair_feeds_histogram_and_recorder_once() {
        let reg = MetricsRegistry::new();
        let hist = reg.histogram_with("phase_ms", Some(("phase", "demo")));
        let tracer = Tracer::new(TraceConfig::named("test"));
        let tid = derive_trace_id(1, DOMAIN_TRAIN_STEP, 0);
        let root = SpanParent::new(&tracer, "train", tid, 0);
        let ms = Span::new(&hist)
            .traced(Some(root), "demo", 7)
            .arg("n", 3)
            .finish();

        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1, "exactly one histogram sample");
        assert_eq!(snap.sum().to_bits(), ms.to_bits(), "finish returns it");
        let recs = tracer.snapshot();
        assert_eq!(recs.len(), 1, "exactly one recorder record");
        let rec = recs[0];
        assert_eq!((rec.name, rec.cat, rec.parent_id), ("demo", "train", 0));
        assert_eq!(rec.span_id, derive_span_id(tid, "demo", 7));
        assert_eq!(rec.args, [("n", 3), ("", 0)]);
        assert!((ms * 1e3 - rec.dur_us as f64).abs() < 1.0, "{ms} ms");

        // A child parents under the span; a third argument is dropped.
        let step = root.child("step", 0);
        let child = step.context().unwrap().child("sample", 0);
        child.arg("a", 1).arg("b", 2).arg("ignored", 3).finish();
        drop(step); // dropping records like finishing, exactly once
        let recs = tracer.snapshot();
        assert_eq!(recs.len(), 3);
        assert_eq!((recs[1].name, recs[2].name), ("sample", "step"));
        assert_eq!(recs[1].args, [("a", 1), ("b", 2)]);
        assert_eq!(recs[1].parent_id, recs[2].span_id);
        assert_eq!(recs[1].trace_id, tid);

        // Disconnected and untraced: nothing is recorded anywhere.
        let off = HistogramHandle::default();
        let span = Span::new(&off).traced(None, "demo", 0).arg("n", 1);
        assert!(span.context().is_none());
        assert!(span.finish() >= 0.0);
        assert_eq!(off.snapshot().count(), 0);
        assert_eq!(hist.snapshot().count(), 1);
    }
}
