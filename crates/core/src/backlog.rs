//! Open-ticket backlog and degraded capacity (§VII-A).
//!
//! The paper argues delayed repair has real costs: "hardware failures
//! reduce the overall capacity of the system. Even worse, unhandled
//! hardware failures add up…". This module quantifies both:
//!
//! * the **repair backlog** — how many `D_fixing` tickets are open
//!   (detected but not yet closed by an operator) at any instant; and
//! * the **degraded fleet** — servers carrying unrepaired (`D_error`)
//!   failures that stay in production.

use dcf_trace::columns::NO_RESPONSE_DAY;
use dcf_trace::{ComponentClass, FotCategory, Trace};

/// One point of a backlog timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacklogPoint {
    /// Day index (absolute, since simulation origin).
    pub day: u64,
    /// Open tickets (or degraded servers) on that day.
    pub count: usize,
}

/// Summary of the repair backlog over the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacklogSummary {
    /// Mean number of open `D_fixing` tickets.
    pub mean_open: f64,
    /// Peak open tickets.
    pub peak_open: usize,
    /// Day of the peak.
    pub peak_day: u64,
    /// Mean open tickets per 1,000 servers.
    pub mean_open_per_1k_servers: f64,
    /// Share of the fleet degraded (≥1 unrepaired `D_error` failure) at
    /// the end of the window — the §VII-A "failures add up" number.
    pub degraded_share_at_end: f64,
}

/// §VII-A backlog analysis over one trace.
#[derive(Debug, Clone)]
pub struct Backlog<'a> {
    trace: &'a Trace,
}

impl<'a> Backlog<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    /// Open `D_fixing` tickets per day (optionally for one class):
    /// a ticket is open from `error_time` until its `op_time`. Tickets
    /// opened outside the window count on no day.
    pub fn open_timeline(&self, class: Option<ComponentClass>) -> Vec<BacklogPoint> {
        let start_day = self.trace.info().start.day_index();
        let days = self.trace.info().days as usize;
        let cols = self.trace.columns();
        let (classes, error_days, op_days) = (cols.classes(), cols.error_days(), cols.op_days());
        // +1 at open day, −1 the day after close.
        let mut delta = vec![0i64; days + 1];
        for &p in self.trace.index().category_ids(FotCategory::Fixing) {
            let i = p as usize;
            if class.is_some_and(|c| classes[i] as usize != c.index()) {
                continue;
            }
            let Some(open) = (error_days[i] as u64).checked_sub(start_day) else {
                continue;
            };
            let open = open as usize;
            if open >= days {
                continue;
            }
            delta[open] += 1;
            let close = if op_days[i] == NO_RESPONSE_DAY {
                days
            } else {
                (op_days[i] as u64).saturating_sub(start_day) as usize + 1
            };
            delta[close.min(days)] -= 1;
        }
        let mut open = 0i64;
        (0..days)
            .map(|d| {
                open += delta[d];
                BacklogPoint {
                    day: start_day + d as u64,
                    count: open.max(0) as usize,
                }
            })
            .collect()
    }

    /// Cumulative count of *degraded* servers per day: servers that have
    /// accumulated at least one unrepaired (`D_error`) failure and remain
    /// in the fleet. Failures before the window start are not counted.
    pub fn degraded_timeline(&self) -> Vec<BacklogPoint> {
        let start_day = self.trace.info().start.day_index();
        let days = self.trace.info().days as usize;
        let cols = self.trace.columns();
        let (servers, error_days) = (cols.servers(), cols.error_days());
        // First in-window error day per server (`usize::MAX`: none).
        let mut first_error_day = vec![usize::MAX; self.trace.servers().len()];
        for &p in self.trace.index().category_ids(FotCategory::Error) {
            let i = p as usize;
            let Some(d) = (error_days[i] as u64).checked_sub(start_day) else {
                continue;
            };
            let first = &mut first_error_day[servers[i] as usize];
            *first = (*first).min(d as usize);
        }
        let mut new_per_day = vec![0usize; days];
        for d in first_error_day {
            if d < days {
                new_per_day[d] += 1;
            }
        }
        let mut cum = 0usize;
        (0..days)
            .map(|d| {
                cum += new_per_day[d];
                BacklogPoint {
                    day: start_day + d as u64,
                    count: cum,
                }
            })
            .collect()
    }

    /// Backlog summary statistics.
    pub fn summary(&self) -> BacklogSummary {
        let timeline = self.open_timeline(None);
        let n = timeline.len().max(1) as f64;
        let mean_open = timeline.iter().map(|p| p.count as f64).sum::<f64>() / n;
        let peak = timeline
            .iter()
            .max_by_key(|p| p.count)
            .copied()
            .unwrap_or(BacklogPoint { day: 0, count: 0 });
        let servers = self.trace.servers().len().max(1) as f64;
        let degraded = self
            .degraded_timeline()
            .last()
            .map(|p| p.count)
            .unwrap_or(0);
        BacklogSummary {
            mean_open,
            peak_open: peak.count,
            peak_day: peak.day,
            mean_open_per_1k_servers: mean_open * 1_000.0 / servers,
            degraded_share_at_end: degraded as f64 / servers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{medium_trace, synthetic_trace};

    #[test]
    fn timeline_is_consistent_with_ticket_lifetimes() {
        let trace = synthetic_trace();
        let backlog = Backlog::new(&trace);
        let timeline = backlog.open_timeline(None);
        assert_eq!(timeline.len(), trace.info().days as usize);
        // Brute-force check a few sampled days.
        let start_day = trace.info().start.day_index();
        for &probe in &[30usize, 120, 300] {
            let day = start_day + probe as u64;
            let expect = trace
                .in_category(dcf_trace::FotCategory::Fixing)
                .filter(|f| {
                    let opened = f.error_time.day_index() <= day;
                    let closed = f
                        .response
                        .map(|r| r.op_time.day_index() < day)
                        .unwrap_or(false);
                    opened && !closed
                })
                .count();
            // Day-granularity edge conventions can differ by same-day closes.
            let got = timeline[probe].count;
            assert!(
                (got as i64 - expect as i64).unsigned_abs() <= expect as u64 / 5 + 3,
                "day {probe}: got {got}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn degraded_fleet_grows_monotonically() {
        let trace = synthetic_trace();
        let timeline = Backlog::new(&trace).degraded_timeline();
        for w in timeline.windows(2) {
            assert!(w[1].count >= w[0].count);
        }
        assert!(timeline.last().unwrap().count > 0, "D_error servers exist");
    }

    #[test]
    fn summary_reflects_slow_operators() {
        let trace = medium_trace();
        let s = Backlog::new(&trace).summary();
        // With median RT around a week over tens of thousands of tickets,
        // hundreds of tickets sit open at any moment.
        assert!(s.mean_open > 50.0, "mean open {}", s.mean_open);
        assert!(s.peak_open >= s.mean_open as usize);
        assert!(s.mean_open_per_1k_servers > 0.0);
        assert!((0.0..=1.0).contains(&s.degraded_share_at_end));
        assert!(s.degraded_share_at_end > 0.01, "degradation accumulates");
    }

    #[test]
    fn class_filter_reduces_backlog() {
        let trace = synthetic_trace();
        let backlog = Backlog::new(&trace);
        let all: usize = backlog.open_timeline(None).iter().map(|p| p.count).sum();
        let hdd: usize = backlog
            .open_timeline(Some(ComponentClass::Hdd))
            .iter()
            .map(|p| p.count)
            .sum();
        assert!(hdd <= all);
        assert!(hdd > 0);
    }
}
