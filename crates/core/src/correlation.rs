//! §V-B/§V-C correlated-failure mining: same-server multi-component
//! failures (Table VI), causal examples (Table VII), and synchronously
//! repeating server groups (Table VIII).
//!
//! # Examples
//!
//! ```
//! use dcf_core::correlation::Correlation;
//!
//! let trace = dcf_sim::Scenario::small().seed(1).simulate(&dcf_sim::RunOptions::default()).unwrap();
//! let corr = Correlation::new(&trace).component_pairs();
//! // Correlated multi-component days are rare (paper: 0.49% of servers).
//! assert!(corr.pair_server_share < 0.05);
//! ```

use dcf_trace::{ComponentClass, ServerId, SimTime, Trace};

/// An unordered component-class pair with a count (a Table VI cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCount {
    /// First class (lower Table II index).
    pub a: ComponentClass,
    /// Second class.
    pub b: ComponentClass,
    /// Number of correlated incidents.
    pub count: usize,
}

/// Table VI plus the §V-B summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedComponents {
    /// Pair counts, largest first.
    pub pairs: Vec<PairCount>,
    /// Servers that experienced at least one correlated incident.
    pub servers_with_pairs: usize,
    /// Share of ever-failed servers with correlated incidents
    /// (paper: 0.49%).
    pub pair_server_share: f64,
    /// Share of correlated incidents involving a miscellaneous report
    /// (paper: 71.5%).
    pub misc_involved_share: f64,
}

/// A Table VII-style causal example: two same-server failures minutes
/// apart.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalExample {
    /// The server.
    pub server: ServerId,
    /// `(class, device path, error time)` of the earlier failure.
    pub first: (ComponentClass, String, SimTime),
    /// Same for the later failure.
    pub second: (ComponentClass, String, SimTime),
}

/// A Table VIII-style synchronous group: servers repeatedly failing within
/// seconds of each other.
#[derive(Debug, Clone, PartialEq)]
pub struct SynchronousGroup {
    /// The servers involved.
    pub servers: Vec<ServerId>,
    /// The shared occurrence times (first server's timestamps).
    pub occurrences: Vec<SimTime>,
}

/// §V-B/C analysis over one trace.
#[derive(Debug, Clone)]
pub struct Correlation<'a> {
    trace: &'a Trace,
}

impl<'a> Correlation<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    /// Table VI: failures of different component classes on the same server
    /// within one calendar day.
    ///
    /// The failure population becomes one sorted list of
    /// `(server << 32 | day, class bit)` entries. After sorting, every
    /// `(server, day)` cell is a contiguous run whose masks OR together,
    /// runs are grouped by server (ever-failed tally = server changes), and
    /// a dense 11×11 table counts the pairs. The pair table is sorted by
    /// count with a class-index tiebreak, a total order, so the output is
    /// deterministic.
    pub fn component_pairs(&self) -> CorrelatedComponents {
        let cols = self.trace.columns();
        let servers = cols.servers();
        let days = cols.error_days();
        let classes = cols.classes();
        let ids = self.trace.index().failure_ids();
        let mut entries: Vec<(u64, u16)> = Vec::with_capacity(ids.len());
        for &p in ids {
            let i = p as usize;
            entries.push(((servers[i] as u64) << 32 | days[i] as u64, 1 << classes[i]));
        }
        entries.sort_unstable();

        let mut pair_counts = [[0usize; 11]; 11];
        let mut incidents_with_misc = 0usize;
        let mut incidents = 0usize;
        let mut ever_failed = 0usize;
        let mut servers_with_pairs = 0usize;
        let mut last_server = u64::MAX;
        let mut last_pair_server = u64::MAX;
        let misc_bit = 1u16 << ComponentClass::Miscellaneous.index();
        let mut i = 0;
        while i < entries.len() {
            let key = entries[i].0;
            let mut mask = 0u16;
            let mut j = i;
            while j < entries.len() && entries[j].0 == key {
                mask |= entries[j].1;
                j += 1;
            }
            let server = key >> 32;
            if server != last_server {
                ever_failed += 1;
                last_server = server;
            }
            if mask.count_ones() >= 2 {
                incidents += 1;
                if server != last_pair_server {
                    servers_with_pairs += 1;
                    last_pair_server = server;
                }
                if mask & misc_bit != 0 {
                    incidents_with_misc += 1;
                }
                for (a, row) in pair_counts.iter_mut().enumerate() {
                    if mask & (1 << a) == 0 {
                        continue;
                    }
                    for (b, cell) in row.iter_mut().enumerate().skip(a + 1) {
                        if mask & (1 << b) != 0 {
                            *cell += 1;
                        }
                    }
                }
            }
            i = j;
        }

        let mut pairs: Vec<PairCount> = Vec::new();
        for (a, row) in pair_counts.iter().enumerate() {
            for (b, &count) in row.iter().enumerate().skip(a + 1) {
                if count > 0 {
                    pairs.push(PairCount {
                        a: ComponentClass::ALL[a],
                        b: ComponentClass::ALL[b],
                        count,
                    });
                }
            }
        }
        pairs.sort_by(|x, y| {
            y.count
                .cmp(&x.count)
                .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
        });

        CorrelatedComponents {
            pairs,
            servers_with_pairs,
            pair_server_share: servers_with_pairs as f64 / ever_failed.max(1) as f64,
            misc_involved_share: incidents_with_misc as f64 / incidents.max(1) as f64,
        }
    }

    /// Table VII-style examples: same-server `(first_class, second_class)`
    /// failures within `max_gap_secs`, up to `limit` examples, servers in
    /// id order.
    ///
    /// Only servers with failures of both classes can hold a pair, so the
    /// scan visits the intersection of the two classes' server sets and
    /// walks each one's index bucket over the columns.
    pub fn causal_examples(
        &self,
        first_class: ComponentClass,
        second_class: ComponentClass,
        max_gap_secs: u64,
        limit: usize,
    ) -> Vec<CausalExample> {
        let index = self.trace.index();
        let cols = self.trace.columns();
        let (servers, classes) = (cols.servers(), cols.classes());
        let servers_of = |class: ComponentClass| {
            let mut ids: Vec<u32> = index
                .class_failure_ids(class)
                .iter()
                .map(|&p| servers[p as usize])
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let with_second = servers_of(second_class);
        let (a, b) = (first_class.index() as u8, second_class.index() as u8);
        let mut out = Vec::new();
        let mut rows: Vec<usize> = Vec::new();
        for server in servers_of(first_class) {
            if with_second.binary_search(&server).is_err() {
                continue;
            }
            let server = ServerId::new(server);
            rows.clear();
            rows.extend(
                index
                    .server_ids(server)
                    .iter()
                    .map(|&p| p as usize)
                    .filter(|&i| cols.is_failure(i)),
            );
            for (k, &r1) in rows.iter().enumerate() {
                let t1 = cols.error_secs(r1);
                for &r2 in &rows[k + 1..] {
                    if cols.error_secs(r2).saturating_sub(t1) > max_gap_secs {
                        break;
                    }
                    let (c1, c2) = (classes[r1], classes[r2]);
                    if (c1 == a && c2 == b) || (c1 == b && c2 == a) {
                        let (f1, f2) = (cols.fot(r1), cols.fot(r2));
                        out.push(CausalExample {
                            server,
                            first: (f1.device, f1.device_path(), f1.error_time),
                            second: (f2.device, f2.device_path(), f2.error_time),
                        });
                        if out.len() >= limit {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }

    /// Table VIII: groups of servers repeatedly failing within
    /// `skew_secs` of one another at least `min_occurrences` times.
    ///
    /// Buckets failures by `(class, time / skew_secs)`; buckets bigger than
    /// `max_bucket` servers are ignored as batch events rather than
    /// synchronous pairs.
    ///
    /// Each class's failures are time-ordered in the trace index, so a
    /// bucket is a contiguous run of them, with members in trace order.
    /// Every bucket emits one `(server pair, time of the earlier member)`
    /// entry per pair of distinct servers; sorting the entries of pairs
    /// with at least `min_occurrences` of them groups each such pair's
    /// co-occurrence times in ascending order.
    pub fn synchronous_groups(
        &self,
        skew_secs: u64,
        min_occurrences: usize,
        max_bucket: usize,
    ) -> Vec<SynchronousGroup> {
        assert!(skew_secs > 0, "skew must be positive");
        let index = self.trace.index();
        let cols = self.trace.columns();
        let servers = cols.servers();
        // (min server << 32 | max server, co-occurrence time in seconds).
        let mut pair_times: Vec<(u64, u64)> = Vec::new();
        // Two bucketing phases (offset 0 and skew/2) so co-occurrences that
        // straddle one phase's bucket boundary land together in the other.
        for phase in 0..2u64 {
            let shift = phase * skew_secs / 2;
            let bucket = |row: u32| (cols.error_secs(row as usize) + shift) / skew_secs;
            for class in ComponentClass::ALL {
                let ids = index.class_failure_ids(class);
                for members in ids.chunk_by(|&a, &b| bucket(a) == bucket(b)) {
                    if members.len() < 2 || members.len() > max_bucket {
                        continue;
                    }
                    for (k, &a) in members.iter().enumerate() {
                        let (s1, t1) = (servers[a as usize], cols.error_secs(a as usize));
                        for &b in &members[k + 1..] {
                            let s2 = servers[b as usize];
                            if s1 != s2 {
                                let (lo, hi) = (s1.min(s2) as u64, s1.max(s2) as u64);
                                pair_times.push((lo << 32 | hi, t1));
                            }
                        }
                    }
                }
            }
        }
        // Merging only drops occurrences, so a pair with fewer entries
        // than `min_occurrences` cannot qualify. Most pairs co-occur once
        // or twice: count entries on the bare keys, and sort the entries
        // of only the few pairs that can.
        let mut keys: Vec<u64> = pair_times.iter().map(|&(key, _)| key).collect();
        keys.sort_unstable();
        let candidates: Vec<u64> = keys
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= min_occurrences)
            .map(|run| run[0])
            .collect();
        pair_times.retain(|(key, _)| candidates.binary_search(key).is_ok());
        pair_times.sort_unstable();

        let mut groups: Vec<SynchronousGroup> = Vec::new();
        for run in pair_times.chunk_by(|a, b| a.0 == b.0) {
            // Merge co-occurrences closer than the skew (the two phases
            // may both record the same incident).
            let mut times: Vec<SimTime> = run.iter().map(|&(_, t)| SimTime::from_secs(t)).collect();
            times.dedup_by(|b, a| b.since(*a).as_secs() < skew_secs);
            if times.len() >= min_occurrences {
                let key = run[0].0;
                groups.push(SynchronousGroup {
                    servers: vec![ServerId::new((key >> 32) as u32), ServerId::new(key as u32)],
                    occurrences: times,
                });
            }
        }
        groups.sort_by(|a, b| {
            b.occurrences
                .len()
                .cmp(&a.occurrences.len())
                .then(a.servers.cmp(&b.servers))
        });
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{medium_trace, synthetic_trace};

    #[test]
    fn pairs_are_rare_and_misc_dominates() {
        let trace = medium_trace();
        let c = Correlation::new(&trace).component_pairs();
        assert!(!c.pairs.is_empty());
        // Paper: 0.49% of ever-failed servers; allow a loose band.
        assert!(
            c.pair_server_share < 0.05,
            "pair server share {}",
            c.pair_server_share
        );
        // Paper: 71.5% of incidents involve a misc report.
        assert!(
            c.misc_involved_share > 0.4,
            "misc share {}",
            c.misc_involved_share
        );
        // The dominant pair involves HDD (349 HDD–misc pairs in Table VI).
        let top = &c.pairs[0];
        assert!(
            top.a == ComponentClass::Hdd || top.b == ComponentClass::Hdd,
            "top pair {top:?}"
        );
    }

    #[test]
    fn power_fan_examples_exist_at_scale() {
        let trace = medium_trace();
        let examples = Correlation::new(&trace).causal_examples(
            ComponentClass::Power,
            ComponentClass::Fan,
            300,
            5,
        );
        // Power→fan propagation is injected with small probability; at 20k
        // servers it may or may not fire, but the search must be well formed.
        for e in &examples {
            let gap = e.second.2.since(e.first.2).as_secs();
            assert!(gap <= 300);
            assert!(e.first.0 != e.second.0);
        }
    }

    #[test]
    fn synchronous_groups_are_detected() {
        let trace = synthetic_trace();
        let groups = Correlation::new(&trace).synchronous_groups(60, 3, 6);
        // The small scenario schedules at least one sync group.
        assert!(
            !groups.is_empty(),
            "expected at least one synchronous group"
        );
        let g = &groups[0];
        assert_eq!(g.servers.len(), 2);
        assert!(g.occurrences.len() >= 3);
        // Servers are co-located by construction (same rack).
        let s1 = trace.server(g.servers[0]);
        let s2 = trace.server(g.servers[1]);
        assert_eq!(s1.data_center, s2.data_center);
    }

    #[test]
    #[should_panic(expected = "skew must be positive")]
    fn synchronous_groups_validate_skew() {
        let trace = synthetic_trace();
        Correlation::new(&trace).synchronous_groups(0, 3, 6);
    }
}
