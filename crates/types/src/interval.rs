//! Typed value-domain intervals: the substrate of the paper's *constraint
//! property framework* (§4.1.5).
//!
//! The optimizer tracks, for each scalar expression, the set of values it may
//! take as a normalized union of disjoint intervals. Filters narrow domains
//! (`CustomerId > 50` ⇒ `(50, +∞)`), CHECK constraints seed them, and empty
//! intersections prove a subtree returns no rows (static partition pruning).
//! NULL is never a member of any domain: SQL predicates are not satisfied by
//! NULL, which is exactly the semantics pruning needs.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// One end of an interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntervalBound {
    /// -∞ for a low bound, +∞ for a high bound.
    Unbounded,
    Included(Value),
    Excluded(Value),
}

impl IntervalBound {
    fn value(&self) -> Option<&Value> {
        match self {
            IntervalBound::Unbounded => None,
            IntervalBound::Included(v) | IntervalBound::Excluded(v) => Some(v),
        }
    }
}

/// A single contiguous interval over the total order of [`Value::total_cmp`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    pub low: IntervalBound,
    pub high: IntervalBound,
}

/// Compare two *low* bounds: which one starts earlier.
fn cmp_low(a: &IntervalBound, b: &IntervalBound) -> Ordering {
    use IntervalBound::*;
    match (a, b) {
        (Unbounded, Unbounded) => Ordering::Equal,
        (Unbounded, _) => Ordering::Less,
        (_, Unbounded) => Ordering::Greater,
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            av.total_cmp(bv).then_with(|| match (a, b) {
                (Included(_), Excluded(_)) => Ordering::Less,
                (Excluded(_), Included(_)) => Ordering::Greater,
                _ => Ordering::Equal,
            })
        }
    }
}

/// Compare two *high* bounds: which one ends earlier.
fn cmp_high(a: &IntervalBound, b: &IntervalBound) -> Ordering {
    use IntervalBound::*;
    match (a, b) {
        (Unbounded, Unbounded) => Ordering::Equal,
        (Unbounded, _) => Ordering::Greater,
        (_, Unbounded) => Ordering::Less,
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            av.total_cmp(bv).then_with(|| match (a, b) {
                (Included(_), Excluded(_)) => Ordering::Greater,
                (Excluded(_), Included(_)) => Ordering::Less,
                _ => Ordering::Equal,
            })
        }
    }
}

impl Interval {
    /// The full domain `(-∞, +∞)`.
    pub fn full() -> Self {
        Interval {
            low: IntervalBound::Unbounded,
            high: IntervalBound::Unbounded,
        }
    }

    /// The single point `[v, v]`.
    pub fn point(v: Value) -> Self {
        Interval {
            low: IntervalBound::Included(v.clone()),
            high: IntervalBound::Included(v),
        }
    }

    /// `[v, +∞)`.
    pub fn at_least(v: Value) -> Self {
        Interval {
            low: IntervalBound::Included(v),
            high: IntervalBound::Unbounded,
        }
    }

    /// `(v, +∞)`.
    pub fn greater_than(v: Value) -> Self {
        Interval {
            low: IntervalBound::Excluded(v),
            high: IntervalBound::Unbounded,
        }
    }

    /// `(-∞, v]`.
    pub fn at_most(v: Value) -> Self {
        Interval {
            low: IntervalBound::Unbounded,
            high: IntervalBound::Included(v),
        }
    }

    /// `(-∞, v)`.
    pub fn less_than(v: Value) -> Self {
        Interval {
            low: IntervalBound::Unbounded,
            high: IntervalBound::Excluded(v),
        }
    }

    /// Closed range `[lo, hi]` (SQL BETWEEN).
    pub fn between(lo: Value, hi: Value) -> Self {
        Interval {
            low: IntervalBound::Included(lo),
            high: IntervalBound::Included(hi),
        }
    }

    /// An interval is empty when its low bound exceeds its high bound, or
    /// they touch on an excluded endpoint.
    pub fn is_empty(&self) -> bool {
        match (self.low.value(), self.high.value()) {
            (Some(lo), Some(hi)) => match lo.total_cmp(hi) {
                Ordering::Greater => true,
                Ordering::Equal => !matches!(
                    (&self.low, &self.high),
                    (IntervalBound::Included(_), IntervalBound::Included(_))
                ),
                Ordering::Less => false,
            },
            _ => false,
        }
    }

    /// Whether `v` lies inside the interval. NULL is never contained.
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        let above_low = match &self.low {
            IntervalBound::Unbounded => true,
            IntervalBound::Included(lo) => lo.total_cmp(v) != Ordering::Greater,
            IntervalBound::Excluded(lo) => lo.total_cmp(v) == Ordering::Less,
        };
        let below_high = match &self.high {
            IntervalBound::Unbounded => true,
            IntervalBound::Included(hi) => v.total_cmp(hi) != Ordering::Greater,
            IntervalBound::Excluded(hi) => v.total_cmp(hi) == Ordering::Less,
        };
        above_low && below_high
    }

    /// Intersection of two intervals, `None` when disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let low = if cmp_low(&self.low, &other.low) == Ordering::Greater {
            self.low.clone()
        } else {
            other.low.clone()
        };
        let high = if cmp_high(&self.high, &other.high) == Ordering::Less {
            self.high.clone()
        } else {
            other.high.clone()
        };
        let out = Interval { low, high };
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Whether `next`, which starts no earlier than `self`, overlaps it or
    /// follows it with no value between (so their union is contiguous): it
    /// starts before `self` ends, or where `self` ends with that value
    /// included on at least one side. Compares bounds only; builds nothing.
    fn reaches(&self, next: &Interval) -> bool {
        use IntervalBound::*;
        match (&self.high, &next.low) {
            (Unbounded, _) | (_, Unbounded) => true,
            (Included(h) | Excluded(h), Included(l) | Excluded(l)) => match l.total_cmp(h) {
                Ordering::Less => true,
                Ordering::Equal => !matches!((&self.high, &next.low), (Excluded(_), Excluded(_))),
                Ordering::Greater => false,
            },
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.low {
            IntervalBound::Unbounded => write!(f, "(-inf")?,
            IntervalBound::Included(v) => write!(f, "[{v}")?,
            IntervalBound::Excluded(v) => write!(f, "({v}")?,
        }
        match &self.high {
            IntervalBound::Unbounded => write!(f, ", +inf)"),
            IntervalBound::Included(v) => write!(f, ", {v}]"),
            IntervalBound::Excluded(v) => write!(f, ", {v})"),
        }
    }
}

/// A normalized union of disjoint, sorted intervals — the domain of a scalar
/// expression (e.g. `[1,1] ∪ [5,5] ∪ [50,100]` from the paper's
/// `CustomerId IN (1,5) OR CustomerId BETWEEN 50 AND 100`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IntervalSet {
    intervals: Vec<Interval>,
}

impl IntervalSet {
    /// The empty domain: no value satisfies the constraints.
    pub fn empty() -> Self {
        IntervalSet {
            intervals: Vec::new(),
        }
    }

    /// The unconstrained domain.
    pub fn full() -> Self {
        IntervalSet {
            intervals: vec![Interval::full()],
        }
    }

    /// One point per value: the domain of an `IN`-list.
    pub fn from_points(values: &[Value]) -> Self {
        IntervalSet::from_intervals(values.iter().cloned().map(Interval::point).collect())
    }

    /// One interval, already normalized: nothing to sort or merge.
    pub fn single(interval: Interval) -> Self {
        match interval.is_empty() {
            true => IntervalSet::empty(),
            false => IntervalSet {
                intervals: vec![interval],
            },
        }
    }

    pub fn point(v: Value) -> Self {
        IntervalSet::single(Interval::point(v))
    }

    /// Build from arbitrary intervals, normalizing (drop empties, sort,
    /// merge overlapping/adjacent).
    pub fn from_intervals(intervals: Vec<Interval>) -> Self {
        let mut ivs: Vec<Interval> = intervals.into_iter().filter(|i| !i.is_empty()).collect();
        ivs.sort_by(|a, b| cmp_low(&a.low, &b.low));
        let mut merged: Vec<Interval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match merged.last_mut() {
                Some(last) if last.reaches(&iv) => {
                    if cmp_high(&iv.high, &last.high) == Ordering::Greater {
                        last.high = iv.high;
                    }
                }
                _ => merged.push(iv),
            }
        }
        IntervalSet { intervals: merged }
    }

    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether this is the single unconstrained interval.
    pub fn is_full(&self) -> bool {
        self.intervals.len() == 1
            && self.intervals[0].low == IntervalBound::Unbounded
            && self.intervals[0].high == IntervalBound::Unbounded
    }

    pub fn contains(&self, v: &Value) -> bool {
        self.intervals.iter().any(|i| i.contains(v))
    }

    /// The smallest single interval covering every member interval — what
    /// one index seek has to span to reach the whole domain. `None` for the
    /// empty domain.
    pub fn hull(&self) -> Option<Interval> {
        Some(Interval {
            low: self.intervals.first()?.low.clone(),
            high: self.intervals.last()?.high.clone(),
        })
    }

    /// Set union (`OR` of predicates).
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all = self.intervals.clone();
        all.extend(other.intervals.iter().cloned());
        IntervalSet::from_intervals(all)
    }

    /// Set intersection (`AND` of predicates): one merge walk over the two
    /// sorted lists, advancing whichever interval ends first. The pieces
    /// come out sorted and need no merging: two consecutive pieces lie in
    /// different intervals of at least one of the sets, and the intervals of
    /// a set never touch.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (a, b) = (&self.intervals, &other.intervals);
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < a.len() && j < b.len() {
            out.extend(a[i].intersect(&b[j]));
            match cmp_high(&a[i].high, &b[j].high) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        IntervalSet { intervals: out }
    }

    /// Whether the two domains share any value — the compile-time pruning
    /// test from §4.1.5 ("intersect the domain of CustomerId with the domain
    /// of the constant 20").
    pub fn intersects(&self, other: &IntervalSet) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Complement within the full ordered domain (`NOT` / `<>` handling).
    /// NULL semantics are unaffected: NULL is in neither a set nor its
    /// complement.
    pub fn complement(&self) -> IntervalSet {
        let mut out = Vec::new();
        let mut cursor = IntervalBound::Unbounded; // low bound of next gap
        for iv in &self.intervals {
            let gap_high = match &iv.low {
                IntervalBound::Unbounded => None, // no gap before -inf
                IntervalBound::Included(v) => Some(IntervalBound::Excluded(v.clone())),
                IntervalBound::Excluded(v) => Some(IntervalBound::Included(v.clone())),
            };
            if let Some(high) = gap_high {
                let gap = Interval {
                    low: cursor.clone(),
                    high,
                };
                if !gap.is_empty() {
                    out.push(gap);
                }
            }
            cursor = match &iv.high {
                IntervalBound::Unbounded => return IntervalSet::from_intervals(out),
                IntervalBound::Included(v) => IntervalBound::Excluded(v.clone()),
                IntervalBound::Excluded(v) => IntervalBound::Included(v.clone()),
            };
        }
        out.push(Interval {
            low: cursor,
            high: IntervalBound::Unbounded,
        });
        IntervalSet::from_intervals(out)
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.intervals.is_empty() {
            return f.write_str("{}");
        }
        let mut first = true;
        for i in &self.intervals {
            if !first {
                f.write_str(" U ")?;
            }
            first = false;
            write!(f, "{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn paper_example_disjoint_ranges() {
        // CustomerId IN (1, 5) OR CustomerId BETWEEN 50 AND 100
        let set = IntervalSet::point(int(1))
            .union(&IntervalSet::point(int(5)))
            .union(&IntervalSet::single(Interval::between(int(50), int(100))));
        assert_eq!(set.intervals().len(), 3);
        assert!(set.contains(&int(1)));
        assert!(set.contains(&int(75)));
        assert!(!set.contains(&int(20)));
        assert_eq!(set.to_string(), "[1, 1] U [5, 5] U [50, 100]");
    }

    #[test]
    fn paper_example_static_pruning() {
        // domain (50, +inf] intersected with [20,20] is empty.
        let dom = IntervalSet::single(Interval::greater_than(int(50)));
        let pred = IntervalSet::point(int(20));
        assert!(!dom.intersects(&pred));
        assert!(dom.intersects(&IntervalSet::point(int(51))));
    }

    #[test]
    fn filter_narrows_domain() {
        // CustomerId > 50 moves [-inf,+inf] to (50,+inf].
        let dom =
            IntervalSet::full().intersect(&IntervalSet::single(Interval::greater_than(int(50))));
        assert!(!dom.contains(&int(50)));
        assert!(dom.contains(&int(51)));
    }

    #[test]
    fn overlapping_intervals_merge() {
        let set = IntervalSet::from_intervals(vec![
            Interval::between(int(1), int(10)),
            Interval::between(int(5), int(20)),
        ]);
        assert_eq!(set.intervals().len(), 1);
        assert!(set.contains(&int(15)));
    }

    #[test]
    fn adjacent_touching_intervals_merge() {
        // [1, 5) U [5, 9] => [1, 9]
        let set = IntervalSet::from_intervals(vec![
            Interval {
                low: IntervalBound::Included(int(1)),
                high: IntervalBound::Excluded(int(5)),
            },
            Interval::between(int(5), int(9)),
        ]);
        assert_eq!(set.intervals().len(), 1);
        assert!(set.contains(&int(5)));
    }

    #[test]
    fn exclusive_adjacency_does_not_merge() {
        // [1, 5) U (5, 9] leaves a hole at 5.
        let set = IntervalSet::from_intervals(vec![
            Interval {
                low: IntervalBound::Included(int(1)),
                high: IntervalBound::Excluded(int(5)),
            },
            Interval {
                low: IntervalBound::Excluded(int(5)),
                high: IntervalBound::Included(int(9)),
            },
        ]);
        assert_eq!(set.intervals().len(), 2);
        assert!(!set.contains(&int(5)));
    }

    #[test]
    fn empty_interval_is_dropped() {
        let set = IntervalSet::single(Interval::between(int(10), int(1)));
        assert!(set.is_empty());
        let half_open = Interval {
            low: IntervalBound::Included(int(3)),
            high: IntervalBound::Excluded(int(3)),
        };
        assert!(half_open.is_empty());
    }

    #[test]
    fn complement_roundtrip() {
        let set = IntervalSet::from_intervals(vec![
            Interval::between(int(1), int(5)),
            Interval::between(int(10), int(20)),
        ]);
        let c = set.complement();
        assert!(!c.contains(&int(3)));
        assert!(c.contains(&int(7)));
        assert!(c.contains(&int(0)));
        assert!(c.contains(&int(21)));
        // complement of complement restores membership behaviour
        let cc = c.complement();
        for v in [0, 1, 3, 5, 7, 10, 15, 20, 25] {
            assert_eq!(cc.contains(&int(v)), set.contains(&int(v)), "value {v}");
        }
    }

    #[test]
    fn hull_spans_first_low_to_last_high() {
        let set = IntervalSet::point(int(7))
            .union(&IntervalSet::single(Interval::greater_than(int(50))))
            .union(&IntervalSet::point(int(3)));
        assert_eq!(set.hull(), Some(Interval::at_least(int(3))));
        assert_eq!(
            IntervalSet::point(int(4)).complement().hull(),
            Some(Interval::full()),
            "a hole does not bound the hull"
        );
        assert_eq!(IntervalSet::empty().hull(), None);
    }

    #[test]
    fn points_are_normalized_in_any_order() {
        let points = |values: &[i64]| {
            values
                .iter()
                .map(|&v| Interval::point(int(v)))
                .collect::<Vec<_>>()
        };
        for values in [vec![1, 3, 7], vec![7, 1, 3, 1], vec![3, 7, 1]] {
            let values: Vec<Value> = values.into_iter().map(int).collect();
            assert_eq!(
                IntervalSet::from_points(&values).intervals(),
                points(&[1, 3, 7])
            );
        }
        assert!(IntervalSet::from_points(&[]).is_empty());
        // An Int and the Float equal to it are one point.
        assert_eq!(
            IntervalSet::from_points(&[int(2), Value::Float(2.0), Value::Float(2.5)]).intervals(),
            [Interval::point(int(2)), Interval::point(Value::Float(2.5))]
        );
    }

    #[test]
    fn complement_of_full_is_empty() {
        assert!(IntervalSet::full().complement().is_empty());
        assert!(IntervalSet::empty().complement().is_full());
    }

    #[test]
    fn null_never_contained() {
        assert!(!IntervalSet::full().contains(&Value::Null));
        assert!(!Interval::full().contains(&Value::Null));
    }

    #[test]
    fn date_check_constraint_ranges_are_disjoint() {
        // lineitem partitioning by commit-date year, as in §4.1.5.
        let d = |s: &str| Value::Date(crate::value::parse_date(s).unwrap());
        let y92 = IntervalSet::single(Interval {
            low: IntervalBound::Included(d("1992-01-01")),
            high: IntervalBound::Excluded(d("1993-01-01")),
        });
        let y93 = IntervalSet::single(Interval {
            low: IntervalBound::Included(d("1993-01-01")),
            high: IntervalBound::Excluded(d("1994-01-01")),
        });
        assert!(!y92.intersects(&y93));
        assert!(y92.contains(&d("1992-06-15")));
        assert!(!y92.contains(&d("1993-01-01")));
    }
}
