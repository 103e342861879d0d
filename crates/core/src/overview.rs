//! §II dataset overview: Table I (categories), Table II (component
//! breakdown), Figure 2 (failure-type breakdown), and the miscellaneous
//! ticket decomposition.

use dcf_trace::{ComponentClass, FailureType, FotCategory, Trace};

/// Table I: ticket shares per category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryBreakdown {
    /// Total number of tickets.
    pub total: usize,
    /// Share of `D_fixing` tickets (paper: 70.3%).
    pub fixing_share: f64,
    /// Share of `D_error` tickets (paper: 28.0%).
    pub error_share: f64,
    /// Share of `D_falsealarm` tickets (paper: 1.7%).
    pub false_alarm_share: f64,
}

/// One row of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentShare {
    /// The component class.
    pub class: ComponentClass,
    /// Number of failures (`D_fixing` + `D_error`).
    pub count: usize,
    /// Share of all failures.
    pub share: f64,
}

/// One bar of Figure 2: a failure type's share within its class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeShare {
    /// The failure type.
    pub failure_type: FailureType,
    /// Number of failures of this type.
    pub count: usize,
    /// Share within the class.
    pub share: f64,
}

/// §II-A: what the manually entered miscellaneous tickets contain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiscProfile {
    /// Number of miscellaneous failures.
    pub count: usize,
    /// Share with no description at all (paper: 44%).
    pub no_description_share: f64,
    /// Share suspected to be HDD-related (paper: ~25%).
    pub suspect_hdd_share: f64,
    /// Share marked "server crash" (paper: ~25%).
    pub server_crash_share: f64,
}

/// The §II overview analysis over one trace.
#[derive(Debug, Clone)]
pub struct Overview<'a> {
    trace: &'a Trace,
}

impl<'a> Overview<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    /// Table I: category shares over all tickets.
    pub fn category_breakdown(&self) -> CategoryBreakdown {
        let [fixing, error, fa] = self.trace.category_counts();
        let total = fixing + error + fa;
        let denom = total.max(1) as f64;
        CategoryBreakdown {
            total,
            fixing_share: fixing as f64 / denom,
            error_share: error as f64 / denom,
            false_alarm_share: fa as f64 / denom,
        }
    }

    /// Table II: failure shares per component class, largest first
    /// (failures = `D_fixing` + `D_error`, as the paper defines).
    ///
    /// Per-class counts come straight off the index's class buckets, so
    /// this is O(classes) on an indexed trace.
    pub fn component_breakdown(&self) -> Vec<ComponentShare> {
        let counts: Vec<usize> = ComponentClass::ALL
            .iter()
            .map(|&class| self.trace.failures_of(class).count())
            .collect();
        let total: usize = counts.iter().sum();
        let denom = total.max(1) as f64;
        let mut rows: Vec<ComponentShare> = ComponentClass::ALL
            .iter()
            .map(|&class| ComponentShare {
                class,
                count: counts[class.index()],
                share: counts[class.index()] as f64 / denom,
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.count));
        rows
    }

    /// Figure 2: failure-type shares within one class, largest first.
    pub fn type_breakdown(&self, class: ComponentClass) -> Vec<TypeShare> {
        // Tally the failure-type column over the class's bucket; type tags
        // are positions in `FailureType::ALL`, which is in `FailureType`
        // order, so the rows come out in type order before the sort.
        let ids = self.trace.index().class_failure_ids(class);
        let types = self.trace.columns().failure_types();
        let mut counts = vec![0usize; FailureType::ALL.len()];
        for &p in ids {
            counts[types[p as usize] as usize] += 1;
        }
        let denom = ids.len().max(1) as f64;
        let mut rows: Vec<TypeShare> = FailureType::ALL
            .iter()
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .map(|(&failure_type, count)| TypeShare {
                failure_type,
                count,
                share: count as f64 / denom,
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.count));
        rows
    }

    /// §II-A: the miscellaneous-ticket decomposition.
    pub fn misc_profile(&self) -> MiscProfile {
        let mut count = 0usize;
        let mut no_desc = 0usize;
        let mut hdd = 0usize;
        let mut crash = 0usize;
        for fot in self.trace.failures_of(ComponentClass::Miscellaneous) {
            count += 1;
            match fot.failure_type {
                FailureType::ManualNoDescription => no_desc += 1,
                FailureType::ManualSuspectHdd => hdd += 1,
                FailureType::ManualServerCrash => crash += 1,
                _ => {}
            }
        }
        let denom = count.max(1) as f64;
        MiscProfile {
            count,
            no_description_share: no_desc as f64 / denom,
            suspect_hdd_share: hdd as f64 / denom,
            server_crash_share: crash as f64 / denom,
        }
    }

    /// Convenience: count of tickets in one category.
    pub fn category_count(&self, category: FotCategory) -> usize {
        self.trace.in_category(category).count()
    }

    /// Failures per product line, largest first — the fleet is partitioned
    /// into hundreds of lines (§VI-C) and failure volume tracks line size.
    /// Counts are the index's per-line bucket sizes.
    pub fn by_product_line(&self) -> Vec<(dcf_trace::ProductLineId, usize)> {
        let mut rows: Vec<(dcf_trace::ProductLineId, usize)> = self
            .trace
            .product_lines()
            .iter()
            .map(|line| (line.id, self.trace.failures_in_line(line.id).count()))
            .collect();
        rows.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        rows
    }

    /// Failures per data center, largest first. Counts are the index's
    /// per-DC bucket sizes.
    pub fn by_data_center(&self) -> Vec<(dcf_trace::DataCenterId, usize)> {
        let mut rows: Vec<(dcf_trace::DataCenterId, usize)> = self
            .trace
            .data_centers()
            .iter()
            .map(|dc| (dc.id, self.trace.failures_in_dc(dc.id).count()))
            .collect();
        rows.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::synthetic_trace;

    #[test]
    fn category_shares_sum_to_one() {
        let trace = synthetic_trace();
        let b = Overview::new(&trace).category_breakdown();
        assert!((b.fixing_share + b.error_share + b.false_alarm_share - 1.0).abs() < 1e-12);
        assert_eq!(b.total, trace.len());
    }

    #[test]
    fn component_breakdown_is_sorted_and_complete() {
        let trace = synthetic_trace();
        let rows = Overview::new(&trace).component_breakdown();
        assert_eq!(rows.len(), 11);
        for w in rows.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        let total: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, trace.failures().count());
        let share_sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn type_breakdown_stays_within_class() {
        let trace = synthetic_trace();
        let rows = Overview::new(&trace).type_breakdown(ComponentClass::Hdd);
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.failure_type.class(), ComponentClass::Hdd);
        }
        let share_sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_line_and_per_dc_breakdowns_partition_failures() {
        let trace = synthetic_trace();
        let o = Overview::new(&trace);
        let total = trace.failures().count();
        let by_line = o.by_product_line();
        assert_eq!(by_line.iter().map(|(_, c)| c).sum::<usize>(), total);
        for w in by_line.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let by_dc = o.by_data_center();
        assert_eq!(by_dc.iter().map(|(_, c)| c).sum::<usize>(), total);
        assert_eq!(by_dc.len(), trace.data_centers().len());
        // The big pinned line dominates (Zipf head).
        assert!(by_line[0].1 > total / trace.product_lines().len());
    }

    #[test]
    fn misc_profile_shares_are_probabilities() {
        let trace = synthetic_trace();
        let p = Overview::new(&trace).misc_profile();
        assert!(p.no_description_share >= 0.0 && p.no_description_share <= 1.0);
        assert!(p.count > 0);
    }
}
