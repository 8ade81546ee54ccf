//! Outside-in span recording.
//!
//! Every span is opened and closed by the benchmark's own code around a call
//! into a layer's public function; nothing inside the program is traced. A
//! span records its name (`<crate>.<operation>`), rank, start, end, parent,
//! the simulated seconds the layer billed over the same interval (when the
//! caller knows them) and the payload bytes it moved (collectives only).
//!
//! Spans are kept per thread in a buffer reserved up front, so recording a
//! span inside a warm outer iteration allocates nothing, and handed to a
//! process-wide collector when a rank finishes.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// No parent: a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans one thread may record before its buffer has to grow.
const CAPACITY: usize = 1 << 16;

/// Open spans one thread may nest.
const MAX_DEPTH: usize = 16;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    /// Index of the enclosing span in the list [`take_all`] returns.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated seconds billed over the span (0 when not known).
    pub sim_s: f64,
    /// Payload bytes moved (collectives only).
    pub bytes: u64,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    rank: u32,
    spans: Vec<Span>,
    stack: [u32; MAX_DEPTH],
    depth: usize,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn collector() -> &'static Mutex<Vec<Span>> {
    static COLLECTED: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    COLLECTED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Arms span recording on the current thread for `rank`.
pub fn install(rank: usize) {
    epoch();
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank: rank as u32,
            spans: Vec::with_capacity(CAPACITY),
            stack: [NO_PARENT; MAX_DEPTH],
            depth: 0,
        })
    });
}

/// Disarms recording on the current thread and hands its spans to the
/// process-wide collector.
pub fn flush() {
    if let Some(rec) = RECORDER.with(|r| r.borrow_mut().take()) {
        assert_eq!(rec.depth, 0, "spans left open at flush");
        let mut collected = collector().lock().expect("span collector poisoned");
        // Parent indices are per thread until here; rebase them onto the
        // collector's list.
        let base = collected.len() as u32;
        collected.extend(rec.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Takes every span flushed so far.
pub fn take_all() -> Vec<Span> {
    std::mem::take(&mut *collector().lock().expect("span collector poisoned"))
}

/// Runs `f` inside a span named `name`. A no-op wrapper when the thread has
/// no recorder.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = begin(name);
    let out = f();
    end(open, 0.0, 0);
    out
}

/// Handle of an open span.
pub struct Open(Option<u32>);

/// Opens a span; close it with [`end`].
pub fn begin(name: &'static str) -> Open {
    Open(RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        assert!(rec.depth < MAX_DEPTH, "span nesting deeper than {MAX_DEPTH}");
        let parent = if rec.depth == 0 { NO_PARENT } else { rec.stack[rec.depth - 1] };
        let index = rec.spans.len() as u32;
        rec.spans.push(Span {
            name,
            rank: rec.rank,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
            sim_s: 0.0,
            bytes: 0,
        });
        rec.stack[rec.depth] = index;
        rec.depth += 1;
        Some(index)
    }))
}

/// Closes the innermost open span, recording the simulated seconds and
/// payload bytes the caller attributes to it.
pub fn end(open: Open, sim_s: f64, bytes: u64) {
    let Some(index) = open.0 else { return };
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("span closed after its recorder was flushed");
        rec.depth -= 1;
        assert_eq!(rec.stack[rec.depth], index, "spans closed out of order");
        let span = &mut rec.spans[index as usize];
        span.end_ns = now_ns();
        span.sim_s = sim_s;
        span.bytes = bytes;
    });
}

/// Query helpers over a flat span list (one run's spans, all ranks).
pub struct Spans<'a>(pub &'a [Span]);

impl Spans<'_> {
    pub fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.0.iter().filter(move |s| s.name == name)
    }

    pub fn named_prefix<'s>(&'s self, prefix: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.0.iter().filter(move |s| s.name.starts_with(prefix))
    }

    /// Total wall seconds of spans named `name` on `rank`.
    pub fn wall_on(&self, name: &str, rank: u32) -> f64 {
        self.named(name).filter(|s| s.rank == rank).map(Span::wall_s).sum()
    }

    /// Self time of every span named `name`: its wall time minus the wall
    /// time of its direct children.
    pub fn self_walls(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0.0; self.0.len()];
        for s in self.0 {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.wall_s();
            }
        }
        self.0
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.wall_s() - c)
            .collect()
    }
}
