//! In-memory spans around the benchmark's calls into each layer, and
//! the per-layer metrics derived from them.
//!
//! Spans are recorded only in the traced run; the timed runs use a
//! disabled tracer, whose `span` is a plain call. Everything is kept in
//! memory and written once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::common::{at, median, now, Res};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
}

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Spans around direct calls into the layer.
    Measured,
    /// Exact counts from the program's public counters times unit
    /// times measured on the workload's own inputs: the layer runs
    /// inside one opaque call that the benchmark cannot wrap.
    Computed,
}

#[derive(Debug, Clone)]
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub source: Source,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    layers: Vec<Layer>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u128 {
        self.origin.elapsed().as_nanos()
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Appends the spans another thread recorded, on this tracer's
    /// clock; its top-level spans become children of the innermost span
    /// open here.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.origin.duration_since(self.origin).as_nanos();
        let base = self.spans.len();
        let open = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base).or(open),
            ..s
        }));
    }

    /// Durations of every closed span named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
            .map(|s| {
                let ns = (s.end_ns - s.start_ns) as f64;
                ns / 1e6
            })
            .collect()
    }

    /// Median duration of the spans named `name`, ms.
    pub fn median_ms(&self, name: &str) -> Res<f64> {
        let d = self.durations_ms(name);
        if d.is_empty() {
            return Err(format!("no spans named {name}"));
        }
        Ok(median(&d))
    }

    pub fn measured(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Layer {
            name,
            value,
            unit,
            source: Source::Measured,
        });
    }

    pub fn computed(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Layer {
            name,
            value,
            unit,
            source: Source::Computed,
        });
    }

    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Writes spans and layer values as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> Res<()> {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"layers\":[");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let source = match l.source {
                Source::Measured => "measured",
                Source::Computed => "computed",
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"source\":\"{source}\"}}",
                l.name, l.value, l.unit
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            at("create trace directory", std::fs::create_dir_all(dir))?;
        }
        at("write trace", std::fs::write(path, out))
    }
}
