//! The benchmark's own statistics: percentiles, spans with self time, and
//! failure counting.  Everything here is plain data with unit tests; the
//! workloads only feed it numbers.

use std::collections::BTreeMap;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the two closest ranks.  `values` need not be sorted.  Returns
/// `NaN` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// One timed span: a wire call or an in-process call made for the same
/// request.  Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified span name (`wire`, `store.exec`, …).
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the parent span in the same log, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the epoch.
    pub start: u64,
    /// End, nanoseconds since the epoch.
    pub end: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one run, in the order they were recorded.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index (for use as a parent).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends another log, re-basing its parent indices.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus the part of its
    /// interval covered by its children.  Children that overlap each other
    /// are counted once; parts of a child outside the parent are ignored.
    pub fn self_time(&self, index: usize) -> u64 {
        let parent = &self.spans[index];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(start, end)| start < end)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut cursor = parent.start;
        for (start, end) in covered {
            let start = start.max(cursor);
            if end > start {
                union += end - start;
                cursor = end;
            }
        }
        parent.duration() - union
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .collect()
    }

    /// Writes the log as tab-separated lines:
    /// `index name request parent start end`.
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.request, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// `true` when two result entry lists are identical, comparing values by
/// their `f64` bit patterns (all NaNs compare equal to each other).
pub fn same_entries(a: &[(usize, usize, f64)], b: &[(usize, usize, f64)]) -> bool {
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && bits(x.2) == bits(y.2))
}

/// Requests attempted and failed, with the first few failure messages.
/// A failure is an `ERR` reply, an I/O failure or a wrong answer.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The first failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one attempted request; `outcome` is `Err(message)` when the
    /// request failed for any reason.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(message);
            }
        }
    }

    /// Counts one request whose reply must equal `expected`: an `Err`
    /// reply or a different answer is a failure.
    pub fn check<E: std::fmt::Display>(
        &mut self,
        what: &str,
        reply: Result<&[(usize, usize, f64)], E>,
        expected: &[(usize, usize, f64)],
    ) {
        self.record(match reply {
            Err(e) => Err(format!("{what}: {e}")),
            Ok(entries) if same_entries(entries, expected) => Ok(()),
            Ok(entries) => Err(format!(
                "{what}: wrong answer ({} entries, expected {})",
                entries.len(),
                expected.len()
            )),
        });
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Latency samples per request class, in microseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    classes: BTreeMap<&'static str, Vec<f64>>,
}

impl Latencies {
    /// Adds one sample to `class`.
    pub fn add(&mut self, class: &'static str, micros: f64) {
        self.classes.entry(class).or_default().push(micros);
    }

    /// Adds every sample of another set.
    pub fn merge(&mut self, other: Latencies) {
        for (class, values) in other.classes {
            self.classes.entry(class).or_default().extend(values);
        }
    }

    /// The samples of `class` (empty if none).
    pub fn samples(&self, class: &str) -> &[f64] {
        self.classes.get(class).map_or(&[], Vec::as_slice)
    }

    /// Total sample count over all classes.
    pub fn total(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.99) - 99.01).abs() < 1e-9);
        assert!((percentile(&hundred, 0.9) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut log = SpanLog::default();
        let root = log.push(span("wire", None, 100, 200));
        // Two overlapping children cover [110, 150); a third sticks out
        // past the parent's end and only [180, 200) counts.
        log.push(span("a", Some(root), 110, 140));
        log.push(span("b", Some(root), 120, 150));
        log.push(span("c", Some(root), 180, 260));
        // A grandchild does not count against the root.
        log.push(span("d", Some(1), 112, 118));
        assert_eq!(log.self_time(root), 100 - 40 - 20);
        assert_eq!(log.self_time(1), 30 - 6);
        assert_eq!(log.self_time(4), 6);
    }

    #[test]
    fn self_time_of_nested_and_disjoint_children() {
        let mut log = SpanLog::default();
        let root = log.push(span("wire", None, 0, 100));
        log.push(span("a", Some(root), 10, 20));
        log.push(span("b", Some(root), 15, 18)); // inside a
        log.push(span("c", Some(root), 30, 40));
        log.push(span("d", Some(root), 300, 400)); // outside the parent
        assert_eq!(log.self_time(root), 80);
    }

    #[test]
    fn appended_logs_keep_their_parent_links() {
        let mut first = SpanLog::default();
        first.push(span("wire", None, 0, 10));
        let mut second = SpanLog::default();
        let root = second.push(span("wire", None, 20, 40));
        second.push(span("store.exec", Some(root), 22, 30));
        first.append(second);
        assert_eq!(first.spans()[2].parent, Some(1));
        assert_eq!(first.self_time(1), 12);
    }

    #[test]
    fn err_replies_and_wrong_answers_count_as_failures() {
        let expected = vec![(0, 0, 1.5), (1, 2, f64::NAN)];
        let mut tally = Tally::default();
        tally.check::<String>("ok", Ok(&expected), &expected);
        tally.check("err", Err("ERR EEVAL boom"), &expected);
        let wrong = vec![(0, 0, 1.5), (1, 2, 2.0)];
        tally.check::<String>("wrong value", Ok(&wrong), &expected);
        let short = vec![(0, 0, 1.5)];
        tally.check::<String>("missing entry", Ok(&short), &expected);
        tally.record(Err("io: connection reset".into()));
        tally.record(Ok(()));
        assert_eq!(tally.attempted, 6);
        assert_eq!(tally.failed, 4);
        assert!((tally.error_ratio() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(tally.messages.len(), 4);
    }

    #[test]
    fn bitwise_comparison_tells_zero_signs_apart_and_equates_nans() {
        assert!(same_entries(&[(0, 0, f64::NAN)], &[(0, 0, -f64::NAN)]));
        assert!(!same_entries(&[(0, 0, 0.0)], &[(0, 0, -0.0)]));
        assert!(!same_entries(&[(0, 0, 1.0)], &[(0, 1, 1.0)]));
    }

    #[test]
    fn empty_tally_has_zero_error_ratio() {
        assert_eq!(Tally::default().error_ratio(), 0.0);
    }
}
