//! Spans of the traced run. Each span records a layer's name, the
//! generation or request it served, its parent and its interval; spans
//! stay in memory and are written out as JSON lines when the run ends.
//!
//! A span either wraps a call the benchmark makes, or carries a phase
//! clock the program already reports (`GenerationStats::eval_ns` and
//! friends), which the benchmark cannot wrap from outside. Calls made
//! once per genome are folded into one span per generation with a call
//! count, so a pop-10⁴ run does not record 10⁴ spans a generation.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Generation or request index.
    pub id: u64,
    pub parent: Option<usize>,
    /// Offset from the start of the traced window.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this span (1 for a single call).
    pub calls: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            dur_ns,
            calls,
        });
        self.spans.len() - 1
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Summed duration and call count of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| (ns + s.dur_ns, calls + s.calls))
    }

    /// Summed self time of every span named `name`: its duration minus the
    /// part its child spans cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut children: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.dur_ns
                    .saturating_sub(children.get(&i).copied().unwrap_or(0))
            })
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"dur_ns\": {}, \"calls\": {}}}",
                s.name, s.id, s.start_ns, s.dur_ns, s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let step = t.record("step", 0, None, 0, 100, 1);
        let eval = t.record("eval", 0, Some(step), 0, 60, 1);
        t.record("gym", 0, Some(eval), 0, 45, 10);
        t.record("speciate", 0, Some(step), 60, 30, 1);
        assert_eq!(t.self_ns("step"), 10);
        assert_eq!(t.self_ns("eval"), 15);
        assert_eq!(t.self_ns("gym"), 45);
        assert_eq!(t.total("gym"), (45, 10));
    }
}
