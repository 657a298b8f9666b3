//! Call-level spans recorded from the benchmark's side of each library call:
//! name, start, end, the span that caused it, and the step it belongs to.
//! Spans stay in memory and are written out once, at the end of the run.

use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub step: u32,
    /// Timed by the program's own telemetry: only the duration is measured,
    /// the placement inside the parent is synthesized.
    pub imported: bool,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder that costs one branch per call when off, so the untraced
/// and traced runs share their step loops.
pub struct Tracer {
    on: bool,
    t0: Instant,
    step: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            step: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_step(&mut self, step: usize) {
        self.step = step as u32;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            step: self.step,
            imported: false,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Span around one call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Attach spans the program's telemetry timed inside `parent` (durations
    /// in call order). They are packed back to back against the parent's end,
    /// because the engine's solve phases are followed only by the scatter.
    pub fn import_children(&mut self, parent: u32, children: &[(&'static str, f64)]) {
        let p = self.spans[parent as usize];
        let total: u64 = children.iter().map(|&(_, d)| (d * 1e9) as u64).sum();
        let mut at = p.end_ns.saturating_sub(total).max(p.start_ns);
        for &(name, dur_s) in children {
            let end = (at + (dur_s * 1e9) as u64).min(p.end_ns);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent,
                step: p.step,
                imported: true,
            });
            at = end;
        }
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_s).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.dur_s();
            }
        }
        own
    }

    /// Ids of the spans called `name`, in recording order.
    pub fn named(&self, name: &str) -> Vec<u32> {
        (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].name == name)
            .collect()
    }

    /// Durations of the spans called `name` that belong to steps `>= first_step`.
    pub fn durations_s(&self, name: &str, first_step: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.step as usize >= first_step)
            .map(Span::dur_s)
            .collect()
    }

    /// The whole trace as one JSON document (times in ns since the tracer
    /// was created). `program_events` are the telemetry sink's JSONL lines.
    pub fn to_json(&self, workload: &str, seed: u64, program_events: &[String]) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 256);
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            if s.parent == NO_PARENT {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let clock = if s.imported { "telemetry" } else { "benchmark" };
            let _ = write!(out, ",\"step\":{},\"clock\":\"{clock}\"}}", s.step);
        }
        out.push_str("\n],\"program_events\":[\n");
        out.push_str(&program_events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.open("step");
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close(root);
        t.import_children(1, &[("a.inner", 0.001)]);
        let own = t.self_times_s();
        let total: f64 = own.iter().sum();
        assert!(
            (total - t.spans[0].dur_s()).abs() < 1e-9,
            "self times telescope to the root"
        );
        assert!(own[1] < t.spans[1].dur_s(), "imported child is subtracted");
        assert!(
            t.spans[3].start_ns >= t.spans[1].start_ns && t.spans[3].end_ns <= t.spans[1].end_ns
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("step");
        assert_eq!(t.time("x", || 7), 7);
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
