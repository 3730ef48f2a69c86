//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch),
//! the span that caused it (its parent), and the op it works for: spans of
//! one op share that id. Spans are kept in memory on the walking thread and
//! written out as JSON lines when the walk ends.
//!
//! The walk is generic over [`Trace`], so the untraced pass compiles the
//! span calls away entirely and the difference between the two passes is
//! the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id for work no single op owns (a batch flush carrying several ops'
/// envelopes, a group commit, a frame holding several ops' entries).
pub const SHARED_OP: u64 = 0;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recording (its id).
    pub id: u32,
    /// Id of the span that caused it; `None` for a root (one walk step).
    pub parent: Option<u32>,
    /// The op this span works for ([`SHARED_OP`] for shared work).
    pub op: u64,
    /// Layer call or walk step name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recording {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDING: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// How the walk wraps each layer call.
pub trait Trace: Copy + Send + Sync {
    /// Runs `f` as a span named `name` under the innermost open span.
    fn span<R>(self, name: &'static str, f: impl FnOnce() -> R) -> R;
    /// Sets the op that the next spans work for.
    fn set_op(self, op: u64);
}

/// No tracing: every call compiles to the bare layer call.
#[derive(Clone, Copy, Debug)]
pub struct Untraced;

impl Trace for Untraced {
    #[inline(always)]
    fn span<R>(self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn set_op(self, _op: u64) {}
}

/// Records spans into the calling thread's recording (see [`record`]).
#[derive(Clone, Copy, Debug)]
pub struct Traced;

impl Trace for Traced {
    fn span<R>(self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = RECORDING.with(|r| {
            let mut r = r.borrow_mut();
            let r = r.as_mut().expect("Traced spans run inside trace::record");
            let id = u32::try_from(r.spans.len()).expect("span count fits u32");
            let start_ns = r.epoch.elapsed().as_nanos() as u64;
            r.spans.push(Span {
                id,
                parent: r.open.last().copied(),
                op: r.op,
                name,
                start_ns,
                end_ns: start_ns,
            });
            r.open.push(id);
            id
        });
        let out = f();
        RECORDING.with(|r| {
            let mut r = r.borrow_mut();
            let r = r.as_mut().expect("recording still open");
            r.open.pop();
            r.spans[id as usize].end_ns = r.epoch.elapsed().as_nanos() as u64;
        });
        out
    }

    fn set_op(self, op: u64) {
        RECORDING.with(|r| {
            if let Some(r) = r.borrow_mut().as_mut() {
                r.op = op;
            }
        });
    }
}

/// Runs `f` with span recording on for this thread and returns its result
/// together with every span it recorded, in start order.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<Span>) {
    RECORDING.with(|r| {
        *r.borrow_mut() = Some(Recording {
            epoch: Instant::now(),
            op: SHARED_OP,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        });
    });
    let out = f();
    let rec = RECORDING
        .with(|r| r.borrow_mut().take())
        .expect("recording still installed");
    (out, rec.spans)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children of one parent never overlap (one thread), so
/// the covered part is the sum of their durations.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Per span name: `(calls, total self time ns)`.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// Spans as JSON lines, one object per span:
/// `{"id":…,"parent":…|null,"op":…,"name":"…","start_ns":…,"end_ns":…}`.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
