//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the id of the
//! gesture (op) it belongs to. Names are `<layer>.<function>`; the layer
//! is the text before the first dot. With tracing off, [`Tracer::span`]
//! only calls its closure, so the untraced run pays nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Sample;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls, busy time and self time of every span with one name.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    /// Every call's duration, for percentiles.
    pub durs_ns: Vec<f64>,
}

impl Agg {
    /// The median call's duration, ns.
    pub fn median_ns(&self) -> f64 {
        let mut s = Sample::default();
        self.durs_ns.iter().for_each(|d| s.push(*d));
        s.median()
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Total duration of the top-level spans recorded after the first
    /// `from`, ns.
    pub fn top_level_ns_since(&self, from: usize) -> u64 {
        let spans = self.spans.borrow();
        spans[from.min(spans.len())..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRec::dur_ns)
            .sum()
    }

    /// Attribute the spans that follow to gesture `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(SpanRec {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Aggregate every span by name; self time subtracts the direct
    /// children's durations.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.busy_ns += s.dur_ns();
            a.self_ns += s.dur_ns().saturating_sub(children);
            a.durs_ns.push(s.dur_ns() as f64);
        }
        out
    }

    /// Self time per layer (the span-name prefix before the first dot).
    pub fn self_ns_by_layer(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, agg) in self.by_name() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_insert(0) += agg.self_ns;
        }
        out
    }

    /// Write the spans to `<target>/perfbench-spans/<label>.tsv`, where
    /// `<target>` is `$CARGO_TARGET_DIR` (or `target`); a failure to
    /// write is reported, not fatal.
    pub fn save(&self, label: &str) {
        let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let path = Path::new(&dir)
            .join("perfbench-spans")
            .join(format!("{label}.tsv"));
        match self.write_tsv(&path) {
            Ok(()) => println!("spans: {} written to {}", self.len(), path.display()),
            Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
        }
    }

    /// Write every span as a tab-separated row:
    /// `id name start_ns end_ns parent op`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("a.outer", || {
            t.span("b.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let agg = t.by_name();
        let outer = &agg["a.outer"];
        let inner = &agg["b.inner"];
        assert_eq!(outer.calls, 1);
        assert!(inner.busy_ns >= 5_000_000);
        assert_eq!(outer.self_ns + inner.busy_ns, outer.busy_ns);
        let layers = t.self_ns_by_layer();
        assert_eq!(layers["b"], inner.self_ns);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.x", || 7), 7);
        assert!(t.by_name().is_empty());
    }
}
