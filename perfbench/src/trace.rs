//! In-memory wall-clock spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end and the span that was open when it
//! started. Spans stay in memory and are written out when the run ends;
//! a disabled tracer records nothing, so untraced passes pay only the
//! cost of a branch.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The span recorder. Spans nest through a stack of open spans: `enter`
/// opens one under the innermost open span, `exit` closes it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::off()
    }
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// [`Tracer::time`], also returning the call's wall time in
    /// milliseconds (measured even when the tracer is off).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.exit(id);
        (out, elapsed.as_secs_f64() * 1e3)
    }

    /// For each span named `root`, in order, the summed milliseconds of
    /// its descendants named `name`.
    pub fn per_root(&self, root: &str, name: &str) -> Vec<f64> {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .collect();
        let mut sums = vec![0.0; roots.len()];
        for span in self.spans.iter().filter(|s| s.name == name) {
            let mut up = span.parent;
            while let Some(p) = up {
                if self.spans[p].name == root {
                    if let Ok(k) = roots.binary_search(&p) {
                        sums[k] += span.ms();
                    }
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        sums
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// For each span named `root`, the share of its time that no direct
    /// child span covers: what the layer spans fail to account for.
    pub fn unaccounted(&self, root: &str) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| crate::stats::ratio(s.ms() - children[i], s.ms()))
            .collect()
    }

    /// The spans as a JSON array of `{name, start_us, end_us, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )
            .expect("writing to a String never fails");
        }
        out.push_str("]\n");
        out
    }

    /// Writes the spans to `path` as JSON, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_root() {
        let mut t = Tracer::on();
        for _ in 0..2 {
            let root = t.enter("pass");
            t.time("stage", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let mid = t.enter("group");
            t.time("stage", || ());
            t.exit(mid);
            t.exit(root);
        }
        let sums = t.per_root("pass", "stage");
        assert_eq!(sums.len(), 2);
        assert!(sums.iter().all(|&ms| ms >= 2.0), "{sums:?}");
        assert_eq!(t.durations("group").len(), 2);
        assert!(t.unaccounted("pass").iter().all(|&u| u < 0.5));
        assert!(t.to_json().starts_with("[{\"name\": \"pass\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let (value, ms) = t.timed("stage", || 7);
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        assert!(t.durations("stage").is_empty());
    }
}
