//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans stay in memory while the workload runs
//! and are written out once, when the benchmark ends.

use explain3d::service::json::Json;
use std::time::{Duration, Instant};

/// One recorded interval: `[start_us, end_us)` relative to the tracer's
/// epoch, with the id of the span that caused it (0 = root).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64((self.end_us - self.start_us).max(0.0) / 1e6)
    }
}

/// A span recorder. Ids start at 1; a parent of 0 marks a root span (one
/// benchmark operation).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records an interval measured elsewhere (e.g. on a worker thread).
    pub fn record(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let span =
            Span { id, parent, name, start_us: self.offset_us(start), end_us: self.offset_us(end) };
        self.spans.push(span);
        id
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::open`] and returns its length.
    pub fn close(&mut self, id: u32) -> Duration {
        let end = self.offset_us(Instant::now());
        let span = &mut self.spans[id as usize - 1];
        span.end_us = end;
        span.duration()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Self time of span `id`: its length minus the part of its interval
    /// covered by its direct children (overlapping children are merged).
    pub fn self_time_us(&self, id: u32) -> f64 {
        let span = &self.spans[id as usize - 1];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == id)
            .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
            .filter(|(s, e)| e > s)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_us;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (span.end_us - span.start_us) - covered
    }

    /// The spans as JSON (`[{id, parent, name, start_us, end_us}, ...]`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("id", s.id as usize)
                        .set("parent", s.parent as usize)
                        .set("name", s.name)
                        .set("start_us", s.start_us)
                        .set("end_us", s.end_us)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = Tracer::default();
        let e = t.epoch;
        let at = |us: u64| e + Duration::from_micros(us);
        let root = t.record("op", 0, at(0), at(100));
        t.record("a", root, at(10), at(40));
        t.record("b", root, at(30), at(50)); // overlaps a
        t.record("c", root, at(90), at(120)); // runs past the parent
        let self_us = t.self_time_us(root);
        assert!((self_us - 50.0).abs() < 1e-6, "self time {self_us}");
    }
}
