//! Statistics rowsets (paper §3.2.4).
//!
//! "Another supported extension allows remote sources to pass statistical
//! information (including histograms) from remote sources into the optimizer
//! to generate more accurate cardinality estimates over remote operations.
//! This commonly provides order of magnitude improvements on cardinality
//! estimates." Experiment E7 measures exactly that claim.
//!
//! Histograms are equi-depth: each bucket holds roughly the same number of
//! rows between an exclusive lower and an inclusive upper bound, with a
//! distinct-value count for equality estimates.

use dhqp_types::{Interval, IntervalBound, IntervalSet, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One histogram step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket.
    pub upper: Value,
    /// Rows with values in `(previous_upper, upper]`.
    pub rows: f64,
    /// Distinct values in the bucket.
    pub distinct: f64,
}

/// An equi-depth histogram over one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Minimum non-null value (the exclusive floor of the first bucket is
    /// just below it).
    pub min: Value,
    pub buckets: Vec<HistogramBucket>,
    pub null_rows: f64,
    pub total_rows: f64,
}

/// Map a value onto the real line for within-bucket interpolation; `None`
/// for types we do not interpolate (strings fall back to whole-bucket
/// counting).
fn as_real(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Date(d) => Some(*d as f64),
        Value::Bool(b) => Some(*b as i64 as f64),
        _ => None,
    }
}

impl Histogram {
    /// Build an equi-depth histogram from a sorted, non-null value sample.
    /// `values` must be sorted by [`Value::total_cmp`].
    pub fn build(values: &[Value], bucket_count: usize, null_rows: f64) -> Option<Histogram> {
        if values.is_empty() || bucket_count == 0 {
            return None;
        }
        let per_bucket = (values.len() as f64 / bucket_count as f64).ceil() as usize;
        let per_bucket = per_bucket.max(1);
        let mut buckets = Vec::new();
        let mut start = 0;
        while start < values.len() {
            let mut end = (start + per_bucket).min(values.len());
            // Extend the bucket so equal values never straddle a boundary —
            // otherwise equality estimates double-count.
            while end < values.len() && values[end] == values[end - 1] {
                end += 1;
            }
            let slice = &values[start..end];
            let mut distinct = 1.0;
            for w in slice.windows(2) {
                if w[0] != w[1] {
                    distinct += 1.0;
                }
            }
            buckets.push(HistogramBucket {
                upper: slice[slice.len() - 1].clone(),
                rows: slice.len() as f64,
                distinct,
            });
            start = end;
        }
        Some(Histogram {
            min: values[0].clone(),
            buckets,
            null_rows,
            total_rows: values.len() as f64 + null_rows,
        })
    }

    /// Estimated number of rows equal to `v`.
    pub fn estimate_eq(&self, v: &Value) -> f64 {
        if v.is_null() {
            return 0.0;
        }
        let mut lower = &self.min;
        for b in &self.buckets {
            let in_bucket = v.total_cmp(lower) != std::cmp::Ordering::Less
                && v.total_cmp(&b.upper) != std::cmp::Ordering::Greater;
            if in_bucket {
                return b.rows / b.distinct.max(1.0);
            }
            lower = &b.upper;
        }
        0.0
    }

    /// Estimated number of rows whose value lies in `interval`. Buckets
    /// wholly below it are skipped by binary search, and the walk stops at
    /// the first bucket that starts at or past its end, so a point costs
    /// one or two buckets, not the histogram.
    pub fn estimate_interval(&self, interval: &Interval) -> f64 {
        if interval.is_empty() {
            return 0.0;
        }
        let start = match &interval.low {
            IntervalBound::Unbounded => 0,
            IntervalBound::Included(v) | IntervalBound::Excluded(v) => self
                .buckets
                .partition_point(|b| b.upper.total_cmp(v) == Ordering::Less),
        };
        let mut rows = 0.0;
        for (k, b) in self.buckets.iter().enumerate().skip(start) {
            // Bucket covers [min, upper] for the first bucket, else
            // (previous upper, upper].
            let low = match k.checked_sub(1) {
                None => IntervalBound::Included(self.min.clone()),
                Some(prev) => {
                    let lower = &self.buckets[prev].upper;
                    if let IntervalBound::Included(v) | IntervalBound::Excluded(v) = &interval.high
                    {
                        if lower.total_cmp(v) != Ordering::Less {
                            break;
                        }
                    }
                    IntervalBound::Excluded(lower.clone())
                }
            };
            let bucket_iv = Interval {
                low,
                high: IntervalBound::Included(b.upper.clone()),
            };
            if let Some(overlap) = bucket_iv.intersect(interval) {
                rows += b.rows * fraction_of(&bucket_iv, &overlap, b.distinct);
            }
        }
        rows
    }

    /// Estimated rows whose value lies in any interval of `set`.
    pub fn estimate_set(&self, set: &IntervalSet) -> f64 {
        set.intervals()
            .iter()
            .map(|i| self.estimate_interval(i))
            .sum()
    }

    /// Selectivity (fraction of all rows, nulls excluded by predicates).
    pub fn selectivity(&self, set: &IntervalSet) -> f64 {
        if self.total_rows <= 0.0 {
            return 0.0;
        }
        (self.estimate_set(set) / self.total_rows).clamp(0.0, 1.0)
    }
}

/// Fraction of `bucket` covered by `overlap`, interpolating linearly for
/// numeric/date domains and falling back to a distinct-count heuristic for
/// strings.
fn fraction_of(bucket: &Interval, overlap: &Interval, distinct: f64) -> f64 {
    let ends = |iv: &Interval| -> Option<(f64, f64)> {
        let lo = match &iv.low {
            IntervalBound::Included(v) | IntervalBound::Excluded(v) => as_real(v)?,
            IntervalBound::Unbounded => f64::NEG_INFINITY,
        };
        let hi = match &iv.high {
            IntervalBound::Included(v) | IntervalBound::Excluded(v) => as_real(v)?,
            IntervalBound::Unbounded => f64::INFINITY,
        };
        Some((lo, hi))
    };
    let is_point = matches!(
        (&overlap.low, &overlap.high),
        (IntervalBound::Included(a), IntervalBound::Included(b)) if a == b
    );
    match (ends(bucket), ends(overlap)) {
        (Some((blo, bhi)), Some((olo, ohi))) if bhi > blo && bhi.is_finite() && blo.is_finite() => {
            if is_point {
                // A point lookup inside a wide bucket hits one distinct
                // value's share of rows, not a zero-width slice.
                1.0 / distinct.max(1.0)
            } else {
                ((ohi.min(bhi) - olo.max(blo)) / (bhi - blo)).clamp(0.0, 1.0)
            }
        }
        // Degenerate single-value bucket or non-numeric domain: a point
        // overlap hits one distinct value; anything wider is assumed to
        // cover the whole bucket.
        _ => {
            if is_point {
                1.0 / distinct.max(1.0)
            } else {
                1.0
            }
        }
    }
}

/// Per-table statistics bundle a provider can expose.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TableStatistics {
    pub row_count: Option<u64>,
    /// Histograms keyed by lower-cased column name, each shared with the
    /// logical properties of every group that reads its column.
    pub histograms: BTreeMap<String, Arc<Histogram>>,
}

impl TableStatistics {
    pub fn histogram(&self, column: &str) -> Option<&Arc<Histogram>> {
        self.histograms.get(&column.to_ascii_lowercase())
    }

    pub fn set_histogram(&mut self, column: &str, h: Histogram) {
        self.histograms
            .insert(column.to_ascii_lowercase(), Arc::new(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    #[test]
    fn build_equi_depth() {
        let h = Histogram::build(&ints(0..1000), 10, 0.0).unwrap();
        assert_eq!(h.buckets.len(), 10);
        assert!((h.total_rows - 1000.0).abs() < 1e-9);
        for b in &h.buckets {
            assert!((b.rows - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn equality_estimate_uses_distinct_counts() {
        let h = Histogram::build(&ints(0..1000), 10, 0.0).unwrap();
        let est = h.estimate_eq(&Value::Int(512));
        assert!((est - 1.0).abs() < 0.5, "estimate {est} should be about 1");
        assert_eq!(h.estimate_eq(&Value::Int(5000)), 0.0);
        assert_eq!(h.estimate_eq(&Value::Null), 0.0);
    }

    #[test]
    fn range_estimate_interpolates() {
        let h = Histogram::build(&ints(0..1000), 10, 0.0).unwrap();
        let set = IntervalSet::single(Interval::between(Value::Int(0), Value::Int(249)));
        let est = h.estimate_set(&set);
        assert!(
            (est - 250.0).abs() < 30.0,
            "estimate {est} should be near 250"
        );
        assert!((h.selectivity(&set) - 0.25).abs() < 0.05);
    }

    #[test]
    fn skewed_duplicates_stay_in_one_bucket() {
        // 900 copies of 7 plus 0..100 — heavy skew.
        let mut vals = vec![Value::Int(7); 900];
        vals.extend(ints(0..100));
        vals.sort_by(|a, b| a.total_cmp(b));
        let h = Histogram::build(&vals, 10, 0.0).unwrap();
        let est = h.estimate_eq(&Value::Int(7));
        assert!(est > 100.0, "skewed key should estimate high, got {est}");
    }

    #[test]
    fn disjoint_set_estimates_add() {
        let h = Histogram::build(&ints(0..1000), 10, 0.0).unwrap();
        let set = IntervalSet::single(Interval::between(Value::Int(0), Value::Int(99))).union(
            &IntervalSet::single(Interval::between(Value::Int(500), Value::Int(599))),
        );
        let est = h.estimate_set(&set);
        assert!(
            (est - 200.0).abs() < 40.0,
            "estimate {est} should be near 200"
        );
    }

    #[test]
    fn skipped_buckets_change_no_estimate() {
        // The reference: every bucket tried against the interval.
        fn every_bucket(h: &Histogram, interval: &Interval) -> f64 {
            let mut rows = 0.0;
            let mut low = IntervalBound::Included(h.min.clone());
            for b in &h.buckets {
                let bucket_iv = Interval {
                    low,
                    high: IntervalBound::Included(b.upper.clone()),
                };
                if let Some(overlap) = bucket_iv.intersect(interval) {
                    rows += b.rows * fraction_of(&bucket_iv, &overlap, b.distinct);
                }
                low = IntervalBound::Excluded(b.upper.clone());
            }
            rows
        }
        let mut vals = vec![Value::Int(7); 300];
        vals.extend(ints(-50..250).into_iter().map(|v| match v {
            Value::Int(i) => Value::Int(i - i % 3),
            other => other,
        }));
        vals.sort_by(|a, b| a.total_cmp(b));
        let h = Histogram::build(&vals, 12, 0.0).unwrap();
        let end = |kind: i64, v: i64| match kind {
            0 => IntervalBound::Included(Value::Int(v)),
            1 => IntervalBound::Excluded(Value::Int(v)),
            _ => IntervalBound::Unbounded,
        };
        for lo in (-60..260).step_by(7) {
            for width in [0, 1, 5, 40, 300] {
                for (lk, hk) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 2)] {
                    let iv = Interval {
                        low: end(lk, lo),
                        high: end(hk, lo + width),
                    };
                    assert_eq!(h.estimate_interval(&iv), every_bucket(&h, &iv), "{iv}");
                }
            }
        }
    }

    #[test]
    fn empty_input_yields_no_histogram() {
        assert!(Histogram::build(&[], 10, 0.0).is_none());
    }

    #[test]
    fn table_statistics_lookup_is_case_insensitive() {
        let mut stats = TableStatistics::default();
        stats.set_histogram(
            "C_NationKey",
            Histogram::build(&ints(0..25), 5, 0.0).unwrap(),
        );
        assert!(stats.histogram("c_nationkey").is_some());
        assert!(stats.histogram("C_NATIONKEY").is_some());
        assert!(stats.histogram("missing").is_none());
    }
}
