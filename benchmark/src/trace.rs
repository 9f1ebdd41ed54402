//! The traced pass: spans recorded by benchmark code around calls into
//! the program's public functions, never inside it. Each client thread
//! owns a preallocated buffer; nothing is written until the run ends.
//!
//! A [`Probe`] is what a workload loop holds. Untraced it runs the call
//! and nothing else, so the loop is the same code in both passes and the
//! difference in `ops_per_s` between them is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::lat::Clock;

/// One span. `id` and `parent` are indices (from 1) into the recording
/// thread's own buffer; `parent == 0` is a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer.
pub struct Tracer {
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(thread: u32, cap: usize) -> Tracer {
        Tracer {
            thread,
            spans: Vec::with_capacity(cap),
        }
    }

    /// Record a finished span; returns its id.
    pub fn leaf(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_ns = end_ns;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A workload loop's handle on tracing: a clock, and a tracer in the
/// traced pass only.
pub struct Probe {
    pub clock: Clock,
    tracer: Option<Tracer>,
}

impl Probe {
    pub fn new(clock: Clock, tracer: Option<Tracer>) -> Probe {
        Probe { clock, tracer }
    }

    /// Open a parent span whose children follow; `0` when untraced.
    #[inline]
    pub fn open(&mut self, name: &'static str, start_ns: u64) -> u32 {
        match &mut self.tracer {
            Some(t) => t.leaf(0, name, start_ns, start_ns),
            None => 0,
        }
    }

    #[inline]
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(t) = &mut self.tracer {
            t.close(id, end_ns);
        }
    }

    /// Run `f`, as a child span of `parent` when traced.
    #[inline]
    pub fn call<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.tracer {
            None => f(),
            Some(t) => {
                let start = self.clock.now_ns();
                let out = f();
                t.leaf(parent, name, start, self.clock.now_ns());
                out
            }
        }
    }

    /// Record an already-timed child span (a wait the loop measured).
    #[inline]
    pub fn leaf(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(t) = &mut self.tracer {
            t.leaf(parent, name, start_ns, end_ns);
        }
    }

    pub fn into_tracer(self) -> Option<Tracer> {
        self.tracer
    }
}

/// Time under one span name, summed over all threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by the spans' own children.
    pub self_ns: u64,
}

/// Per-name totals and self times. A thread's spans never overlap their
/// siblings (one thread, sequential calls), so self time is the span
/// minus the sum of its direct children.
pub fn self_times(tracers: &[Tracer]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len() + 1];
        for s in &t.spans {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
        for s in &t.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
        }
    }
    out
}

/// Durations of every span called `name`, in nanoseconds.
pub fn durations(tracers: &[Tracer], name: &str) -> Vec<u32> {
    tracers
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| u32::try_from(s.end_ns.saturating_sub(s.start_ns)).unwrap_or(u32::MAX))
        .collect()
}

/// At most this many spans per thread are written out; the totals in the
/// report cover all of them.
const WRITE_CAP: usize = 100_000;

/// Write `{id, parent, name, thread, start_ns, end_ns}` records.
pub fn write_json(path: &Path, workload: &str, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let recorded: usize = tracers.iter().map(|t| t.spans.len()).sum();
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{recorded},\"spans_written_per_thread_cap\":{WRITE_CAP},\"spans\":["
    )?;
    let mut first = true;
    for t in tracers {
        for s in t.spans.iter().take(WRITE_CAP) {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            write!(
                w,
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, t.thread, s.start_ns, s.end_ns
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(0, 8);
        let op = t.leaf(0, "op", 100, 100);
        t.leaf(op, "a", 110, 150);
        t.leaf(op, "b", 150, 170);
        t.close(op, 200);
        let times = self_times(&[t]);
        assert_eq!(
            times["op"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            times["a"],
            LayerTime {
                count: 1,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(times["b"].self_ns, 20);
    }

    #[test]
    fn untraced_probe_records_nothing_and_still_runs_the_call() {
        let mut p = Probe::new(Clock::start(), None);
        let op = p.open("op", 0);
        assert_eq!(op, 0);
        assert_eq!(p.call(op, "x", || 7), 7);
        p.close(op, 1);
        assert!(p.into_tracer().is_none());
    }

    #[test]
    fn traced_probe_nests_and_the_file_parses() {
        let clock = Clock::start();
        let mut p = Probe::new(clock, Some(Tracer::new(3, 8)));
        let op = p.open("op", clock.now_ns());
        p.call(op, "inner", || std::hint::black_box(1 + 1));
        p.leaf(op, "wait", 5, 9);
        p.close(op, clock.now_ns());
        let t = p.into_tracer().unwrap();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, op);
        assert_eq!(durations(std::slice::from_ref(&t), "wait"), vec![4]);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        write_json(&path, "test", &[t]).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("thread").and_then(Json::as_f64), Some(3.0));
        assert_eq!(spans[2].get("name").and_then(Json::as_str), Some("wait"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
