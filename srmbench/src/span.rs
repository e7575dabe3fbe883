//! Outside-in tracing: a span recorder and a `DiskArray` wrapper that
//! times every call crossing a stack boundary.
//!
//! Spans live in memory until the workload ends.  A span's parent is
//! the span that was open on the caller thread when it started, so
//! `Span(Retrying(Span(Parity(..))))` nests by construction and a
//! layer's self time is its span minus its children.

use pdisk::{
    Block, BlockAddr, BufferPool, DiskArray, DiskId, Geometry, IoStats, ReadTicket, Record, RedundancyInfo, Result,
    ScrubOutcome, StripedRun, TraceSink, WriteTicket,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// The record type every workload sorts (8 bytes, so MB/s is 8e-6 x
/// `records_per_s`).
pub type Rec = pdisk::U64Record;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    name: u32,
    pub parent: u32,
    /// The rep of the workload the span belongs to.
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    names: Vec<String>,
    index: HashMap<String, u32>,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    /// Event counts kept beside the spans, by name id.
    counts: Vec<u64>,
}

/// Per-name totals over one rep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

/// Shared handle to the span recorder; single-threaded by design (the
/// engines call the array from one thread).
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<TracerInner>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Rc::new(RefCell::new(TracerInner {
            epoch: Instant::now(),
            names: Vec::new(),
            index: HashMap::new(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            counts: Vec::new(),
        })))
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn name_id(&self, name: &str) -> u32 {
        let mut t = self.0.borrow_mut();
        if let Some(&id) = t.index.get(name) {
            return id;
        }
        let id = t.names.len() as u32;
        t.names.push(name.to_string());
        t.counts.push(0);
        t.index.insert(name.to_string(), id);
        id
    }

    pub fn set_rep(&self, rep: u32) {
        self.0.borrow_mut().rep = rep;
    }

    pub fn enter(&self, name: u32) -> u32 {
        let mut t = self.0.borrow_mut();
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let now = t.epoch.elapsed().as_nanos() as u64;
        let rep = t.rep;
        t.spans.push(Span { name, parent, rep, start_ns: now, end_ns: now });
        t.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&self, id: u32) {
        let mut t = self.0.borrow_mut();
        let top = t.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.spans[id as usize].end_ns = now;
    }

    /// Open a span by name.
    pub fn open(&self, name: &str) -> u32 {
        self.enter(self.name_id(name))
    }

    /// Close the innermost open span, if any.  With `drop_if_empty`, a
    /// span nothing ran inside is forgotten instead.
    pub fn close_innermost(&self, drop_if_empty: bool) {
        let Some(id) = self.0.borrow().open.last().copied() else {
            return;
        };
        self.exit(id);
        let mut t = self.0.borrow_mut();
        if drop_if_empty && t.spans.len() as u32 == id + 1 {
            t.spans.pop();
        }
    }

    /// Close the innermost open span and open a sibling named `name`.
    pub fn next_sibling(&self, name: &str) -> u32 {
        self.close_innermost(false);
        self.open(name)
    }

    /// Close every open span, innermost first.
    pub fn close_all(&self) {
        while !self.0.borrow().open.is_empty() {
            self.close_innermost(false);
        }
    }

    #[cfg(test)]
    pub fn scope<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn count(&self, name: u32, by: u64) {
        self.0.borrow_mut().counts[name as usize] += by;
    }

    /// Value of the counter `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        let t = self.0.borrow();
        t.index.get(name).map_or(0, |&id| t.counts[id as usize])
    }

    pub fn reset_counts(&self) {
        self.0.borrow_mut().counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Totals by span name over the spans of `rep` that descend from a
    /// span named `root` (the root itself included).
    pub fn totals(&self, rep: u32, root: &str) -> BTreeMap<String, Agg> {
        let t = self.0.borrow();
        let mut child_ns = vec![0u64; t.spans.len()];
        let mut inside = vec![false; t.spans.len()];
        for (i, s) in t.spans.iter().enumerate() {
            // Parents precede children, so one forward pass suffices.
            inside[i] = t.names[s.name as usize] == root || (s.parent != NO_PARENT && inside[s.parent as usize]);
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut by_name = vec![Agg::default(); t.names.len()];
        for (i, s) in t.spans.iter().enumerate() {
            if s.rep != rep || !inside[i] {
                continue;
            }
            let agg = &mut by_name[s.name as usize];
            agg.calls += 1;
            agg.total_s += s.dur_ns() as f64 * 1e-9;
            agg.self_s += s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        t.names.iter().cloned().zip(by_name).filter(|(_, agg)| agg.calls > 0).collect()
    }

    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Write `trace-<workload>.jsonl` into `dir`; a failure is reported
    /// on stderr and otherwise ignored, because the metrics do not
    /// depend on the file.
    pub fn save(&self, workload: &str, dir: &Path) {
        let path = dir.join(format!("trace-{workload}.jsonl"));
        if let Err(e) = self.write_jsonl(workload, &path) {
            eprintln!("{workload}: cannot write {}: {e}", path.display());
        }
    }

    /// One JSON object per span: id, parent, workload, rep, name, start
    /// and end in nanoseconds since the tracer was made.
    fn write_jsonl(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let t = self.0.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.rep, t.names[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The `DiskArray` calls that get a span, in `ids` order.
const CALLS: [&str; 11] = [
    "read",
    "write",
    "submit_read",
    "complete_read",
    "submit_write",
    "complete_write",
    "prefetch",
    "sync",
    "alloc_contiguous",
    "alloc_run",
    "scrub_block",
];
const READ: usize = 0;
const WRITE: usize = 1;
const SUBMIT_READ: usize = 2;
const COMPLETE_READ: usize = 3;
const SUBMIT_WRITE: usize = 4;
const COMPLETE_WRITE: usize = 5;
const PREFETCH: usize = 6;
const SYNC: usize = 7;
const ALLOC_CONTIGUOUS: usize = 8;
const ALLOC_RUN: usize = 9;
const SCRUB_BLOCK: usize = 10;

/// Times every `DiskArray` call into `inner` as a span named
/// `pdisk.<layer>.<call>`, and forwards every trait method, the ones
/// with defaults included: a method left to its default would silently
/// turn a pipelined stack eager or hide the pool and the trace sink.
#[derive(Debug)]
pub struct SpanDiskArray<A> {
    inner: A,
    tracer: Tracer,
    ids: [u32; CALLS.len()],
    tickets: u32,
    pending_tickets: u32,
}

impl<A> SpanDiskArray<A> {
    pub fn new(inner: A, layer: &str, tracer: Tracer) -> Self {
        let ids = CALLS.map(|call| tracer.name_id(&format!("pdisk.{layer}.{call}")));
        let tickets = tracer.name_id(&format!("pdisk.{layer}.tickets"));
        let pending_tickets = tracer.name_id(&format!("pdisk.{layer}.pending_tickets"));
        SpanDiskArray { inner, tracer, ids, tickets, pending_tickets }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }

    pub fn into_inner(self) -> A {
        self.inner
    }

    fn timed<T>(&mut self, call: usize, f: impl FnOnce(&mut A) -> T) -> T {
        let id = self.tracer.enter(self.ids[call]);
        let out = f(&mut self.inner);
        self.tracer.exit(id);
        out
    }

    fn count_ticket(&self, pending: bool) {
        self.tracer.count(self.tickets, 1);
        self.tracer.count(self.pending_tickets, u64::from(pending));
    }
}

impl<R: Record, A: DiskArray<R>> DiskArray<R> for SpanDiskArray<A> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<R>>> {
        self.timed(READ, |a| a.read(addrs))
    }

    fn write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<()> {
        self.timed(WRITE, |a| a.write(writes))
    }

    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        self.timed(ALLOC_CONTIGUOUS, |a| a.alloc_contiguous(disk, count))
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn redundancy(&self) -> Option<RedundancyInfo> {
        self.inner.redundancy()
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.inner.install_trace(sink)
    }

    fn trace_sink(&self) -> Option<&TraceSink> {
        self.inner.trace_sink()
    }

    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        let ticket = self.timed(SUBMIT_READ, |a| a.submit_read(addrs))?;
        self.count_ticket(ticket.is_pending());
        Ok(ticket)
    }

    fn complete_read(&mut self, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        self.timed(COMPLETE_READ, |a| a.complete_read(ticket))
    }

    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<WriteTicket> {
        let ticket = self.timed(SUBMIT_WRITE, |a| a.submit_write(writes))?;
        self.count_ticket(ticket.is_pending());
        Ok(ticket)
    }

    fn complete_write(&mut self, ticket: WriteTicket) -> Result<()> {
        self.timed(COMPLETE_WRITE, |a| a.complete_write(ticket))
    }

    fn prefetch(&mut self, addrs: &[BlockAddr]) {
        self.timed(PREFETCH, |a| a.prefetch(addrs))
    }

    fn sync(&mut self) -> Result<()> {
        self.timed(SYNC, |a| a.sync())
    }

    fn scrub_block(&mut self, addr: BlockAddr) -> Result<ScrubOutcome> {
        self.timed(SCRUB_BLOCK, |a| a.scrub_block(addr))
    }

    fn install_pool(&mut self, pool: BufferPool<R>) {
        self.inner.install_pool(pool)
    }

    fn buffer_pool(&self) -> Option<&BufferPool<R>> {
        self.inner.buffer_pool()
    }

    fn alloc_run(&mut self, start_disk: DiskId, len_blocks: u64, records: u64) -> Result<StripedRun> {
        self.timed(ALLOC_RUN, |a| a.alloc_run(start_disk, len_blocks, records))
    }
}

/// How a stack is assembled: bare, or with a [`SpanDiskArray`] above
/// every layer.  Untraced reps use [`NoSpans`], so what they time is
/// the production stack and nothing else.
pub trait Layering {
    type Out<A: DiskArray<Rec>>: DiskArray<Rec>;
    /// Put `array` behind a span layer named `layer` (or not).
    fn wrap<A: DiskArray<Rec>>(&self, layer: &str, array: A) -> Self::Out<A>;
    fn unwrap<A: DiskArray<Rec>>(out: Self::Out<A>) -> A;
    fn peel<A: DiskArray<Rec>>(out: &Self::Out<A>) -> &A;
}

#[derive(Debug, Clone, Copy)]
pub struct NoSpans;

impl Layering for NoSpans {
    type Out<A: DiskArray<Rec>> = A;
    fn wrap<A: DiskArray<Rec>>(&self, _layer: &str, array: A) -> A {
        array
    }
    fn unwrap<A: DiskArray<Rec>>(out: A) -> A {
        out
    }
    fn peel<A: DiskArray<Rec>>(out: &A) -> &A {
        out
    }
}

#[derive(Debug, Clone)]
pub struct WithSpans(pub Tracer);

impl Layering for WithSpans {
    type Out<A: DiskArray<Rec>> = SpanDiskArray<A>;
    fn wrap<A: DiskArray<Rec>>(&self, layer: &str, array: A) -> SpanDiskArray<A> {
        SpanDiskArray::new(array, layer, self.0.clone())
    }
    fn unwrap<A: DiskArray<Rec>>(out: SpanDiskArray<A>) -> A {
        out.into_inner()
    }
    fn peel<A: DiskArray<Rec>>(out: &SpanDiskArray<A>) -> &A {
        out.inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new();
        t.set_rep(3);
        t.scope("sort", || {
            t.scope("outer", || {
                t.scope("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
                t.scope("inner", || {});
            });
        });
        t.scope("elsewhere", || {});
        let totals = t.totals(3, "sort");
        assert!(!totals.contains_key("elsewhere"));
        assert_eq!(totals["inner"].calls, 2);
        assert!(totals["inner"].self_s >= 0.005);
        let outer = totals["outer"];
        assert!(outer.total_s >= totals["inner"].total_s);
        assert!((outer.total_s - outer.self_s - totals["inner"].total_s).abs() < 1e-9);
        let sum: f64 = totals.values().map(|a| a.self_s).sum();
        assert!((sum - totals["sort"].total_s).abs() < 1e-9, "self times must add up to the root");
        assert!(t.totals(4, "sort").is_empty());
    }

    #[test]
    fn sibling_and_empty_span_handling() {
        let t = Tracer::new();
        t.open("sort");
        t.open("a");
        t.next_sibling("b");
        t.close_innermost(true);
        t.open("c");
        t.close_all();
        assert_eq!(t.span_count(), 3, "the empty span b is dropped");
        assert_eq!(t.totals(0, "sort").keys().collect::<Vec<_>>(), ["a", "c", "sort"]);
    }
}
