//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (layer, name, start, end, parent) and written out when the run ends.
//! A layer's self time is its spans' duration minus the part their child
//! spans cover. Where the program's own counters split a call further
//! (the engine's phase timers inside `run_by_name`), the split is attached
//! to the span as `inner` time and moved to the named layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Time inside this span that belongs to other layers, as measured
    /// by the program's own counters.
    pub inner: Vec<(&'static str, u64)>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder: `enter`/`exit` nest, so the parent of a new span is
/// the innermost open one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            inner: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its duration.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration()
    }

    /// Run `f` inside a leaf span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attach `nanos` of span `id`'s time to `layer`.
    pub fn attribute(&mut self, id: usize, layer: &'static str, nanos: u64) {
        self.spans[id].inner.push((layer, nanos));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `layer`/`name`, in recording order.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self time of every span: its duration minus its children's
    /// durations and its inner attributions (never below zero).
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(span, &c)| {
                let inner: u64 = span.inner.iter().map(|&(_, n)| n).sum();
                span.duration().saturating_sub(c + inner)
            })
            .collect()
    }

    /// The outermost span enclosing span `id` (itself, for a root).
    fn root_of(&self, mut id: usize) -> usize {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        id
    }

    /// Self time per layer, summed over the spans under roots named
    /// `root` (inner attributions included under their own layers).
    pub fn layer_self_nanos(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (id, (span, own)) in self.spans.iter().zip(self.self_nanos()).enumerate() {
            if self.spans[self.root_of(id)].name != root {
                continue;
            }
            *out.entry(span.layer).or_insert(0) += own;
            for &(layer, nanos) in &span.inner {
                *out.entry(layer).or_insert(0) += nanos;
            }
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let inner: Vec<String> = span
                .inner
                .iter()
                .map(|(layer, nanos)| format!("\"{layer}\":{nanos}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"inner_ns\":{{{}}}}}",
                span.layer,
                span.name,
                span.start_ns,
                span.end_ns,
                inner.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "t",
            start_ns,
            end_ns,
            parent,
            inner: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_inner_time() {
        let root = span("bench", 0, 100, None);
        let mut call = span("protocols", 10, 90, Some(0));
        call.inner = vec![("core", 20), ("exec", 50)];
        let leaf = span("wire", 92, 99, Some(0));
        let t = fixed(vec![root, call, leaf]);
        assert_eq!(t.self_nanos(), vec![100 - 80 - 7, 80 - 70, 7]);
        let layers = t.layer_self_nanos("t");
        assert!(t.layer_self_nanos("other").is_empty());
        assert_eq!(layers["bench"], 13);
        assert_eq!(layers["protocols"], 10);
        assert_eq!(layers["core"], 20);
        assert_eq!(layers["exec"], 50);
        assert_eq!(layers["wire"], 7);
        // Self times partition the root's wall.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn enter_and_exit_nest() {
        let mut t = Tracer::new();
        let root = t.enter("bench", "op");
        let value = t.span("stream", "gen", || 41 + 1);
        t.exit(root);
        assert_eq!(value, 42);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations("stream", "gen").len(), 1);
    }
}
