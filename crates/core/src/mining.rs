//! FOT context mining (§VII-B).
//!
//! The paper's critique of the "stateless" FMS: "many FOTs are strongly
//! connected — there are repeating or batch failures. The correlation
//! information is lost in FMS, and thus operators have to treat each FOT
//! independently. … we need to provide operators with related information
//! about an FOT, such as the history of the component, the server, its
//! environment, and the workload."
//!
//! [`FotMiner`] is that tool: given a ticket id, it assembles the context
//! an operator would want before deciding how to respond.

use dcf_trace::{Fot, FotId, ServerId, SimTime, Trace};

/// How urgent/suspicious a ticket looks given its context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextFlag {
    /// Same component failed before: the previous repair did not stick —
    /// look for the real root cause (the paper's BBU story).
    RepeatingComponent,
    /// The class is spiking fleet-wide today: likely a batch event; check
    /// firmware/PDU before issuing per-server repair orders.
    BatchDay,
    /// Another component on this server failed the same day: correlated
    /// multi-component incident; the alarming part may not be the broken
    /// part (§V-B's fan-vs-PSU example).
    CorrelatedNeighbor,
    /// The server is past warranty: policy says decommission or ignore.
    OutOfWarranty,
    /// The server is in its deployment phase: expect installation noise.
    DeploymentPhase,
}

/// Everything the miner knows about one ticket.
#[derive(Debug, Clone, PartialEq)]
pub struct FotContext {
    /// The ticket in question.
    pub fot: FotId,
    /// Earlier failures of the *same component* `(server, class, slot,
    /// type)` — the component history.
    pub component_history: Vec<(FotId, SimTime)>,
    /// All failures ever recorded on this server (the server history size).
    pub server_failure_count: usize,
    /// Same-class fleet-wide failures on the ticket's calendar day, and the
    /// trace's median daily count for that class.
    pub class_count_today: usize,
    /// Median daily count of the class over the window.
    pub class_daily_median: usize,
    /// Other components of this server that failed the same day.
    pub same_day_neighbors: Vec<FotId>,
    /// Servers that failed with the same class within ±60 s (synchronous
    /// partners / batch cohort sample, capped at 8).
    pub co_failing_servers: Vec<ServerId>,
    /// Advisory flags derived from the above.
    pub flags: Vec<ContextFlag>,
}

/// The §VII-B mining tool over one trace.
#[derive(Debug)]
pub struct FotMiner<'a> {
    trace: &'a Trace,
    /// Per-class daily counts, for batch-day detection.
    daily: Vec<Vec<usize>>,
    daily_median: Vec<usize>,
}

impl<'a> FotMiner<'a> {
    /// Builds the miner (one pass over the trace for the daily index).
    pub fn new(trace: &'a Trace) -> Self {
        let start_day = trace.info().start.day_index();
        let days = trace.info().days as usize;
        let mut daily = vec![vec![0usize; days]; 11];
        for fot in trace.failures() {
            // Failures outside the window count on no day.
            let Some(d) = fot.error_time.day_index().checked_sub(start_day) else {
                continue;
            };
            if let Some(count) = daily[fot.device.index()].get_mut(d as usize) {
                *count += 1;
            }
        }
        let daily_median = daily
            .iter()
            .map(|counts| {
                let mut sorted = counts.clone();
                sorted.sort_unstable();
                sorted[sorted.len() / 2]
            })
            .collect();
        Self {
            trace,
            daily,
            daily_median,
        }
    }

    /// Assembles the context for ticket `id`; `None` for unknown ids.
    pub fn context(&self, id: FotId) -> Option<FotContext> {
        let ids = self.trace.columns().ids();
        let row = ids.iter().position(|&raw| raw == id.raw())?;
        Some(self.context_of(self.trace.fot(row)))
    }

    /// Contexts for every failure of one server (operator drill-down view).
    pub fn server_contexts(&self, server: ServerId) -> Vec<FotContext> {
        self.trace
            .fots_of_server(server)
            .filter(|f| f.is_failure())
            .map(|f| self.context_of(f))
            .collect()
    }

    /// The context of one ticket.
    fn context_of(&self, fot: Fot<'_>) -> FotContext {
        let server = self.trace.server(fot.server);
        let day = fot.error_time.day_index();

        let mut component_history = Vec::new();
        let mut same_day_neighbors = Vec::new();
        let mut server_failure_count = 0usize;
        for other in self.trace.fots_of_server(fot.server) {
            if !other.is_failure() {
                continue;
            }
            server_failure_count += 1;
            if other.id != fot.id
                && other.component_key() == fot.component_key()
                && other.failure_type == fot.failure_type
                && other.error_time <= fot.error_time
            {
                component_history.push((other.id, other.error_time));
            }
            if other.id != fot.id
                && other.device != fot.device
                && other.error_time.day_index() == day
            {
                same_day_neighbors.push(other.id);
            }
        }

        // Same-class co-failures within ±60 s (batch cohort / sync
        // partner), in time order: failures are time-sorted, so only the
        // window's slice of them is read.
        let window = 60u64;
        let cols = self.trace.columns();
        let failures = self.trace.index().failure_ids();
        let t = fot.error_time.as_secs();
        let first = failures.partition_point(|&r| cols.error_secs(r as usize) + window < t);
        let mut co_failing_servers = Vec::new();
        for &row in &failures[first..] {
            let row = row as usize;
            if co_failing_servers.len() >= 8 || cols.error_secs(row) > t + window {
                break;
            }
            let other = ServerId::new(cols.servers()[row]);
            if other != fot.server
                && cols.classes()[row] as usize == fot.device.index()
                && !co_failing_servers.contains(&other)
            {
                co_failing_servers.push(other);
            }
        }

        let start_day = self.trace.info().start.day_index();
        let class_count_today = day
            .checked_sub(start_day)
            .and_then(|d| self.daily[fot.device.index()].get(d as usize))
            .copied()
            .unwrap_or(0);
        let class_daily_median = self.daily_median[fot.device.index()];

        let mut flags = Vec::new();
        if !component_history.is_empty() {
            flags.push(ContextFlag::RepeatingComponent);
        }
        if class_count_today > (class_daily_median * 5).max(10) {
            flags.push(ContextFlag::BatchDay);
        }
        if !same_day_neighbors.is_empty() {
            flags.push(ContextFlag::CorrelatedNeighbor);
        }
        if server.out_of_warranty_at(fot.error_time) {
            flags.push(ContextFlag::OutOfWarranty);
        }
        if fot.error_time.since(server.deploy_time) < dcf_trace::SimDuration::from_days(60) {
            flags.push(ContextFlag::DeploymentPhase);
        }

        FotContext {
            fot: fot.id,
            component_history,
            server_failure_count,
            class_count_today,
            class_daily_median,
            same_day_neighbors,
            co_failing_servers,
            flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::synthetic_trace;
    use dcf_trace::FotCategory;

    #[test]
    fn unknown_id_yields_none() {
        let trace = synthetic_trace();
        let miner = FotMiner::new(&trace);
        assert!(miner.context(FotId::new(u64::MAX)).is_none());
    }

    #[test]
    fn every_failure_gets_a_context() {
        let trace = synthetic_trace();
        let miner = FotMiner::new(&trace);
        for fot in trace.failures().take(200) {
            let ctx = miner.context(fot.id).expect("context exists");
            assert_eq!(ctx.fot, fot.id);
            assert!(ctx.server_failure_count >= 1);
            assert!(ctx.class_count_today >= 1, "the ticket itself counts");
        }
    }

    #[test]
    fn out_of_warranty_tickets_are_flagged() {
        let trace = synthetic_trace();
        let miner = FotMiner::new(&trace);
        let error_fot = trace
            .in_category(FotCategory::Error)
            .next()
            .expect("small trace has D_error tickets");
        let ctx = miner.context(error_fot.id).unwrap();
        assert!(ctx.flags.contains(&ContextFlag::OutOfWarranty));
    }

    #[test]
    fn repeating_components_are_flagged_on_later_occurrences() {
        let trace = synthetic_trace();
        let miner = FotMiner::new(&trace);
        // Find any component with >= 2 failures of the same type.
        let mut seen = std::collections::HashMap::new();
        let mut repeat_id = None;
        for fot in trace.failures() {
            let key = (fot.component_key(), fot.failure_type);
            if seen.contains_key(&key) {
                repeat_id = Some(fot.id);
                break;
            }
            seen.insert(key, fot.id);
        }
        let Some(id) = repeat_id else {
            return; // no repeats in this fixture — nothing to assert
        };
        let ctx = miner.context(id).unwrap();
        assert!(ctx.flags.contains(&ContextFlag::RepeatingComponent));
        assert!(!ctx.component_history.is_empty());
    }

    #[test]
    fn server_contexts_cover_all_failures() {
        let trace = synthetic_trace();
        let miner = FotMiner::new(&trace);
        let busiest = trace
            .servers()
            .iter()
            .max_by_key(|s| {
                trace
                    .fots_of_server(s.id)
                    .filter(|f| f.is_failure())
                    .count()
            })
            .unwrap();
        let contexts = miner.server_contexts(busiest.id);
        let failures = trace
            .fots_of_server(busiest.id)
            .filter(|f| f.is_failure())
            .count();
        assert_eq!(contexts.len(), failures);
    }
}
