//! In-memory span recorder for the traced run, plus the order statistics
//! every report uses.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is timed.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
struct Span {
    /// Layer-qualified stage name, e.g. `monitor.ingest`.
    name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    end_ns: u64,
}

/// Records spans when enabled; a disabled recorder only runs the closures.
/// The benchmark's layer calls do not nest, so spans carry no parent.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorder's clock, in nanoseconds since it was created.
    pub fn clock_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.clock_ns();
        let out = f();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.clock_ns(),
        });
        out
    }

    /// Per-name totals: (calls, total ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end_ns - span.start_ns;
        }
        totals
    }

    /// Nanoseconds of `[from_ns, to_ns]` that no span covers.
    pub fn unattributed_ns(&self, from_ns: u64, to_ns: u64) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .map(|s| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns)))
            .sum();
        (to_ns - from_ns).saturating_sub(covered)
    }
}

/// Quartiles of `values` as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method). One value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (data[0], data[0], data[0]),
        _ => {
            let (m, n) = (ld + 1, 4usize);
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated
/// between closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    if data.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (data.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    data[lo] + (data[hi] - data[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 99.0), 1.99);
    }

    #[test]
    fn spans_total_per_name_and_leave_gaps_unattributed() {
        let mut tracer = Tracer::new(true);
        let from = tracer.clock_ns();
        for _ in 0..2 {
            tracer.span("stage", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        let to = tracer.clock_ns();
        let (calls, total) = tracer.totals()["stage"];
        assert_eq!(calls, 2);
        assert!(total >= 4_000_000);
        let gap = tracer.unattributed_ns(from, to);
        assert_eq!(gap, to - from - total);
        assert!(gap >= 2_000_000);
        assert_eq!(Tracer::new(false).span("off", || 7), 7);
    }
}
