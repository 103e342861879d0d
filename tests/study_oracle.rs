//! Reference implementations of the study sections, checked against the
//! production kernels.
//!
//! Every section in `dcf-core` computes its tallies with a columnar kernel
//! over `Trace::columns()` and the `TraceIndex` buckets. The functions in
//! this file are the naive definitions those kernels must agree with:
//! plain filters and hash maps over `trace.fots()`, with no index, no
//! columns and no `FotIter`. Each test runs the small scenario at seeds
//! 1/7/42 and compares kernel and oracle through their `Debug` form, so
//! every float must match to the bit and every list in order.

mod common;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Debug;
use std::sync::OnceLock;

use dcfail::core::backlog::{Backlog, BacklogPoint, BacklogSummary};
use dcfail::core::batch::Batch;
use dcfail::core::correlation::{
    CausalExample, CorrelatedComponents, Correlation, PairCount, SynchronousGroup,
};
use dcfail::core::lifecycle::{Lifecycle, AGE_MONTHS};
use dcfail::core::overview::{Overview, TypeShare};
use dcfail::core::prediction::{Prediction, PredictorEval};
use dcfail::core::replay::{replay, ReplayConfig};
use dcfail::core::response::{LineRtPoint, LineRtSummary, Response, RtStats};
use dcfail::core::skew::{ConcentrationResult, RepeatStats, Skew};
use dcfail::core::spatial::Spatial;
use dcfail::core::temporal::{DayOfWeekResult, HourOfDayResult, TbfFit, TbfResult, Temporal};
use dcfail::core::{FailureStudy, StudyOptions};
use dcfail::report::experiments::render_all;
use dcfail::sim::{RunOptions, Scenario};
use dcfail::stats::chi_square::{against_expected, goodness_of_fit, uniformity};
use dcfail::stats::{fit, rank, Ecdf, StatsError};
use dcfail::trace::io::{fnv1a, FNV_OFFSET};
use dcfail::trace::{
    ComponentClass, FailureType, Fot, FotCategory, FotIter, ProductLineId, ServerId, Severity,
    SimDuration, SimTime, Trace, Weekday, SECS_PER_MONTH,
};

const SEEDS: [u64; 3] = [1, 7, 42];

/// The small-scenario traces at every seed, simulated once per binary.
fn traces() -> &'static [(u64, Trace)] {
    static TRACES: OnceLock<Vec<(u64, Trace)>> = OnceLock::new();
    TRACES.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let trace = Scenario::small()
                    .seed(seed)
                    .simulate(&RunOptions::default())
                    .expect("small scenario runs");
                (seed, trace)
            })
            .collect()
    })
}

fn assert_same<T: Debug>(kernel: T, oracle: T, what: &str) {
    assert_eq!(format!("{kernel:?}"), format!("{oracle:?}"), "{what}");
}

/// Failures (`D_fixing` + `D_error`) of `class` (`None` = every class), in
/// ticket order.
fn failures(trace: &Trace, class: Option<ComponentClass>) -> impl Iterator<Item = Fot<'_>> {
    trace
        .fots()
        .iter()
        .filter(move |f| f.is_failure() && class.is_none_or(|c| f.device == c))
}

// ---------------------------------------------------------------------------
// Population accessors
// ---------------------------------------------------------------------------

#[test]
fn population_accessors_match_filters_over_the_tickets() {
    for (seed, trace) in traces() {
        let ids = |iter: FotIter<'_>| iter.map(|f| f.id).collect::<Vec<_>>();
        let scan = |keep: &dyn Fn(&Fot) -> bool| {
            trace
                .fots()
                .iter()
                .filter(|f| keep(f))
                .map(|f| f.id)
                .collect::<Vec<_>>()
        };

        assert_eq!(
            ids(trace.failures()),
            scan(&|f| f.is_failure()),
            "seed {seed} failures"
        );
        assert_eq!(
            ids(trace.responded()),
            scan(&|f| f.response.is_some()),
            "seed {seed} responded"
        );
        for class in ComponentClass::ALL {
            assert_eq!(
                ids(trace.failures_of(class)),
                scan(&|f| f.is_failure() && f.device == class),
                "seed {seed} failures_of({class:?})"
            );
        }
        for category in FotCategory::ALL {
            assert_eq!(
                ids(trace.in_category(category)),
                scan(&|f| f.category == category),
                "seed {seed} in_category({category:?})"
            );
        }
        for dc in trace.data_centers() {
            assert_eq!(
                ids(trace.failures_in_dc(dc.id)),
                scan(&|f| f.is_failure() && f.data_center == dc.id),
                "seed {seed} failures_in_dc({})",
                dc.id
            );
        }
        for line in trace.product_lines() {
            assert_eq!(
                ids(trace.failures_in_line(line.id)),
                scan(&|f| f.is_failure() && f.product_line == line.id),
                "seed {seed} failures_in_line({})",
                line.id
            );
        }
        for server in trace.servers() {
            assert_eq!(
                ids(trace.fots_of_server(server.id)),
                scan(&|f| f.server == server.id),
                "seed {seed} fots_of_server({})",
                server.id
            );
        }
        let mut counts = [0usize; 3];
        for fot in trace.fots() {
            let slot = FotCategory::ALL
                .iter()
                .position(|&c| c == fot.category)
                .expect("ALL is complete");
            counts[slot] += 1;
        }
        assert_eq!(
            trace.category_counts(),
            counts,
            "seed {seed} category_counts"
        );
    }
}

// ---------------------------------------------------------------------------
// §III-C lifecycle
// ---------------------------------------------------------------------------

/// Failure counts per class and age month.
fn lifecycle_failures(trace: &Trace) -> Vec<Vec<u64>> {
    let mut tally = vec![vec![0u64; AGE_MONTHS]; ComponentClass::ALL.len()];
    for fot in failures(trace, None) {
        let deploy = trace.server(fot.server).deploy_time;
        let age = fot.error_time.since(deploy).as_secs() / SECS_PER_MONTH;
        if (age as usize) < AGE_MONTHS {
            tally[fot.device.index()][age as usize] += 1;
        }
    }
    tally
}

/// Exposure per class and age month, in component-months: every server's
/// component count times its window overlap with each age month, summed
/// server by server.
fn lifecycle_exposure(trace: &Trace) -> Vec<Vec<f64>> {
    let start = trace.info().start.as_secs() as f64;
    let end = trace.end_time().as_secs() as f64;
    let month = SECS_PER_MONTH as f64;
    let mut exposure = vec![vec![0.0f64; AGE_MONTHS]; ComponentClass::ALL.len()];
    for server in trace.servers() {
        let deploy = server.deploy_time.as_secs() as f64;
        for class in ComponentClass::ALL {
            let count = server.component_count(class) as f64;
            for (m, e) in exposure[class.index()].iter_mut().enumerate() {
                let seg_start = (deploy + m as f64 * month).max(start);
                let seg_end = (deploy + (m + 1) as f64 * month).min(end);
                *e += ((seg_end - seg_start) / month).max(0.0) * count;
            }
        }
    }
    exposure
}

#[test]
fn lifecycle_matches_the_oracle() {
    for (seed, trace) in traces() {
        let oracle = lifecycle_failures(trace);
        let exposure = lifecycle_exposure(trace);
        for result in Lifecycle::new(trace).all() {
            let class = result.class;
            assert_same(
                &result.failures,
                &oracle[class.index()],
                &format!("seed {seed} lifecycle {class:?}"),
            );
            // The kernel sums servers per deploy time before weighting, so
            // exposure matches up to float rounding.
            for (m, (&kernel, &naive)) in result
                .exposure
                .iter()
                .zip(&exposure[class.index()])
                .enumerate()
            {
                assert!(
                    (kernel - naive).abs() <= 1e-12 * naive.abs(),
                    "seed {seed} {class:?} month {m}: exposure {kernel} vs {naive}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// §V-A batch failures
// ---------------------------------------------------------------------------

fn daily_counts(trace: &Trace, class: ComponentClass) -> Vec<usize> {
    let start_day = trace.info().start.day_index();
    let days = trace.info().days as usize;
    let mut counts = vec![0usize; days];
    for fot in failures(trace, Some(class)) {
        if fot.error_time < trace.info().start {
            continue;
        }
        let d = (fot.error_time.day_index() - start_day) as usize;
        if d < days {
            counts[d] += 1;
        }
    }
    counts
}

/// The small traces, then the same traces with their windows narrowed by
/// 5 days at each end, so some tickets fall outside the window.
fn traces_and_narrowed() -> impl Iterator<Item = (String, std::borrow::Cow<'static, Trace>)> {
    traces().iter().flat_map(|(seed, trace)| {
        [
            (format!("{seed}"), std::borrow::Cow::Borrowed(trace)),
            (
                format!("{seed} narrowed"),
                std::borrow::Cow::Owned(common::narrowed(trace, 5)),
            ),
        ]
    })
}

#[test]
fn batch_daily_counts_match_the_oracle() {
    for (seed, trace) in traces_and_narrowed() {
        let trace = &*trace;
        let batch = Batch::new(trace);
        for class in ComponentClass::ALL {
            assert_same(
                batch.daily_counts(class),
                daily_counts(trace, class),
                &format!("seed {seed} daily_counts({class:?})"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// §IV spatial
// ---------------------------------------------------------------------------

/// Deduplicated failures per data center and rack position: a repeat of
/// the same problem on the same component counts once, at its earliest
/// ticket.
fn spatial_failures(trace: &Trace) -> Vec<Vec<usize>> {
    let max_pos = trace
        .data_centers()
        .iter()
        .map(|d| d.rack_positions as usize)
        .max()
        .unwrap_or(0);
    let mut tally = vec![vec![0usize; max_pos]; trace.data_centers().len()];
    let mut seen = HashSet::new();
    for fot in failures(trace, None) {
        if seen.insert((fot.server, fot.device, fot.device_slot, fot.failure_type)) {
            tally[fot.data_center.index()][fot.rack_position.index()] += 1;
        }
    }
    tally
}

#[test]
fn spatial_matches_the_oracle() {
    for (seed, trace) in traces() {
        let oracle = spatial_failures(trace);
        for result in Spatial::new(trace).by_data_center(50) {
            let expected = &oracle[result.dc.index()];
            for p in &result.positions {
                assert_eq!(
                    p.failures, expected[p.position as usize],
                    "seed {seed} {} position {}",
                    result.dc, p.position
                );
            }
            let kept: usize = result.positions.iter().map(|p| p.failures).sum();
            assert_eq!(
                kept,
                expected.iter().sum::<usize>(),
                "seed {seed} {}",
                result.dc
            );
        }
    }
}

// ---------------------------------------------------------------------------
// §III-D skew
// ---------------------------------------------------------------------------

fn concentration(trace: &Trace) -> ConcentrationResult {
    let mut per_server: HashMap<ServerId, u32> = HashMap::new();
    for fot in failures(trace, None) {
        *per_server.entry(fot.server).or_insert(0) += 1;
    }
    let mut counts_desc: Vec<u32> = per_server.into_values().collect();
    counts_desc.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = counts_desc.iter().map(|&c| c as usize).sum();
    ConcentrationResult {
        servers_ever_failed: counts_desc.len(),
        ever_failed_share: counts_desc.len() as f64 / trace.servers().len().max(1) as f64,
        total_failures: total,
        max_on_one_server: counts_desc.first().copied().unwrap_or(0),
        counts_desc,
    }
}

fn repeats(trace: &Trace) -> RepeatStats {
    // component → (failure occurrences, had a D_fixing ticket)
    let mut components = HashMap::new();
    let mut failed_servers: HashMap<ServerId, bool> = HashMap::new();
    for fot in failures(trace, None) {
        let key = (fot.server, fot.device, fot.device_slot, fot.failure_type);
        let entry = components.entry(key).or_insert((0u32, false));
        entry.0 += 1;
        entry.1 |= fot.category == FotCategory::Fixing;
        failed_servers.entry(fot.server).or_insert(false);
    }
    let mut fixed = 0usize;
    let mut repeating = 0usize;
    for ((server, _, _, _), (occurrences, was_fixed)) in &components {
        if !was_fixed {
            continue;
        }
        fixed += 1;
        if *occurrences >= 2 {
            repeating += 1;
            failed_servers.insert(*server, true);
        }
    }
    let servers_with_repeats = failed_servers.values().filter(|&&v| v).count();
    RepeatStats {
        fixed_components: fixed,
        repeating_components: repeating,
        never_repeat_share: 1.0 - repeating as f64 / fixed.max(1) as f64,
        servers_with_repeats,
        repeat_server_share: servers_with_repeats as f64 / failed_servers.len().max(1) as f64,
    }
}

#[test]
fn skew_matches_the_oracle() {
    for (seed, trace) in traces() {
        let skew = Skew::new(trace);
        assert_same(
            skew.concentration(),
            concentration(trace),
            &format!("seed {seed} concentration"),
        );
        assert_same(
            skew.repeats(),
            repeats(trace),
            &format!("seed {seed} repeats"),
        );
    }
}

// ---------------------------------------------------------------------------
// §III temporal
// ---------------------------------------------------------------------------

fn day_of_week(
    trace: &Trace,
    class: Option<ComponentClass>,
) -> Result<DayOfWeekResult, StatsError> {
    let mut counts = [0usize; 7];
    for fot in failures(trace, class) {
        counts[fot.error_time.weekday().index()] += 1;
    }
    let total: usize = counts.iter().sum();
    let fractions = counts.map(|c| c as f64 / total.max(1) as f64);

    // Expected counts follow how many of each weekday the window holds.
    let start_day = trace.info().start.day_index();
    let mut pop = [0.0f64; 7];
    for d in 0..trace.info().days {
        pop[SimTime::from_days(start_day + d).weekday().index()] += 1.0;
    }
    let pop_total: f64 = pop.iter().sum();
    let observed: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let expected: Vec<f64> = pop.iter().map(|p| total as f64 * p / pop_total).collect();
    let uniformity = against_expected(&observed, &expected)?;

    let keep: Vec<usize> = Weekday::ALL
        .iter()
        .filter(|w| !w.is_weekend())
        .map(|w| w.index())
        .collect();
    let obs_wd: Vec<f64> = keep.iter().map(|&i| observed[i]).collect();
    let wd_total: f64 = obs_wd.iter().sum();
    let pop_wd_total: f64 = keep.iter().map(|&i| pop[i]).sum();
    let exp_wd: Vec<f64> = keep
        .iter()
        .map(|&i| wd_total * pop[i] / pop_wd_total)
        .collect();
    let weekdays_only = against_expected(&obs_wd, &exp_wd)?;
    Ok(DayOfWeekResult {
        counts,
        fractions,
        uniformity,
        weekdays_only,
    })
}

fn hour_of_day(
    trace: &Trace,
    class: Option<ComponentClass>,
) -> Result<HourOfDayResult, StatsError> {
    let mut counts = [0usize; 24];
    for fot in failures(trace, class) {
        counts[fot.error_time.hour_of_day() as usize] += 1;
    }
    let total: usize = counts.iter().sum();
    let fractions = counts.map(|c| c as f64 / total.max(1) as f64);
    let observed: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    Ok(HourOfDayResult {
        counts,
        fractions,
        uniformity: uniformity(&observed)?,
    })
}

/// Minutes between consecutive tickets, floored at half a second.
fn gaps_minutes<'a>(fots: impl Iterator<Item = Fot<'a>>) -> Vec<f64> {
    let mut last: Option<u64> = None;
    let mut gaps = Vec::new();
    for fot in fots {
        let t = fot.error_time.as_secs();
        if let Some(prev) = last {
            gaps.push(((t - prev) as f64).max(0.5) / 60.0);
        }
        last = Some(t);
    }
    gaps
}

/// TBF fits and summary over a gap series, with the goodness-of-fit test
/// run on the unsorted gaps.
fn tbf(gaps: Vec<f64>) -> Result<TbfResult, StatsError> {
    let n = gaps.len();
    if n < 100 {
        return Err(StatsError::NotEnoughBins {
            found: n,
            required: 100,
        });
    }
    let fits: Vec<TbfFit> = fit::fit_tbf_families(&gaps)
        .into_iter()
        .filter_map(|fitted| {
            goodness_of_fit(&gaps, &fitted, 40, fitted.parameter_count())
                .ok()
                .map(|test| TbfFit { fitted, test })
        })
        .collect();
    let all_rejected_at_005 = !fits.is_empty() && fits.iter().all(|f| f.test.rejects_at(0.05));
    let ecdf = Ecdf::new(gaps)?;
    Ok(TbfResult {
        n,
        mtbf_minutes: ecdf.mean(),
        median_minutes: ecdf.median(),
        fits,
        all_rejected_at_005,
    })
}

fn workload_correlation(
    trace: &Trace,
    class: Option<ComponentClass>,
    utilization_by_hour: &[f64; 24],
) -> Result<f64, StatsError> {
    let start_day = trace.info().start.day_index();
    let days = trace.info().days as usize;
    let mut per_day_hour = vec![[0u32; 24]; days];
    for fot in failures(trace, class) {
        let d = (fot.error_time.day_index() - start_day) as usize;
        if d < days {
            per_day_hour[d][fot.error_time.hour_of_day() as usize] += 1;
        }
    }
    // Days above the 95th percentile of daily totals are batch days.
    let totals: Vec<u32> = per_day_hour.iter().map(|row| row.iter().sum()).collect();
    let mut sorted = totals.clone();
    sorted.sort_unstable();
    let cutoff = sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)];
    let mut typical = [0.0f64; 24];
    for (row, &total) in per_day_hour.iter().zip(&totals) {
        if total <= cutoff {
            for (h, &c) in row.iter().enumerate() {
                typical[h] += c as f64;
            }
        }
    }
    rank::spearman(&typical, utilization_by_hour)
}

#[test]
fn temporal_matches_the_oracle() {
    let mut util = [0.0f64; 24];
    for (h, u) in util.iter_mut().enumerate() {
        *u = 0.3 + 0.6 * (std::f64::consts::PI * h as f64 / 24.0).sin();
    }
    for (seed, trace) in traces() {
        let t = Temporal::new(trace);
        let classes = std::iter::once(None).chain(ComponentClass::ALL.into_iter().map(Some));
        for class in classes {
            let what = format!("seed {seed} class {class:?}");
            let gaps = gaps_minutes(failures(trace, class));
            assert_same(
                t.day_of_week(class),
                day_of_week(trace, class),
                &format!("{what} day_of_week"),
            );
            assert_same(
                t.hour_of_day(class),
                hour_of_day(trace, class),
                &format!("{what} hour_of_day"),
            );
            assert_same(
                t.fused(class),
                (
                    day_of_week(trace, class),
                    hour_of_day(trace, class),
                    tbf(gaps.clone()),
                ),
                &format!("{what} fused"),
            );
            assert_same(
                t.workload_correlation(class, &util),
                workload_correlation(trace, class, &util),
                &format!("{what} workload_correlation"),
            );
            match class {
                None => {
                    assert_same(t.tbf_all(), tbf(gaps.clone()), &format!("{what} tbf_all"));
                    assert_same(
                        t.tbf_ecdf(200),
                        Ecdf::new(gaps).map(|e| e.sampled_points(200)),
                        &format!("{what} tbf_ecdf"),
                    );
                }
                Some(class) => assert_same(
                    t.tbf_of_class(class),
                    tbf(gaps),
                    &format!("{what} tbf_of_class"),
                ),
            }
        }
        let dc_gaps: Vec<_> = trace
            .data_centers()
            .iter()
            .map(|dc| {
                let in_dc = failures(trace, None).filter(|f| f.data_center == dc.id);
                (dc.id, gaps_minutes(in_dc))
            })
            .collect();
        for (dc, gaps) in &dc_gaps {
            assert_same(
                t.tbf_of_dc(*dc),
                tbf(gaps.clone()),
                &format!("seed {seed} tbf_of_dc({dc})"),
            );
        }
        for min_gaps in [1, 50] {
            let oracle: Vec<_> = dc_gaps
                .iter()
                .filter(|(_, gaps)| gaps.len() >= min_gaps)
                .map(|(dc, gaps)| (*dc, gaps.iter().sum::<f64>() / gaps.len() as f64))
                .collect();
            assert_same(
                t.mtbf_by_dc(min_gaps),
                oracle,
                &format!("seed {seed} mtbf_by_dc({min_gaps})"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// §V-B correlation
// ---------------------------------------------------------------------------

fn component_pairs(trace: &Trace) -> CorrelatedComponents {
    // (server, day) → bitmask of the classes that failed there.
    let mut day_classes: HashMap<(ServerId, u64), u16> = HashMap::new();
    let mut ever_failed = HashSet::new();
    for fot in failures(trace, None) {
        ever_failed.insert(fot.server);
        let key = (fot.server, fot.error_time.day_index());
        *day_classes.entry(key).or_insert(0) |= 1 << fot.device.index();
    }

    let mut pair_counts: HashMap<(usize, usize), usize> = HashMap::new();
    let mut incidents_with_misc = 0usize;
    let mut incidents = 0usize;
    let mut servers_with_pairs = HashSet::new();
    let misc_bit = 1u16 << ComponentClass::Miscellaneous.index();
    for (&(server, _day), &mask) in &day_classes {
        if mask.count_ones() < 2 {
            continue;
        }
        incidents += 1;
        servers_with_pairs.insert(server);
        if mask & misc_bit != 0 {
            incidents_with_misc += 1;
        }
        let classes: Vec<usize> = (0..11).filter(|i| mask & (1 << i) != 0).collect();
        for (i, &a) in classes.iter().enumerate() {
            for &b in &classes[i + 1..] {
                *pair_counts.entry((a, b)).or_insert(0) += 1;
            }
        }
    }

    let mut pairs: Vec<PairCount> = pair_counts
        .into_iter()
        .map(|((a, b), count)| PairCount {
            a: ComponentClass::ALL[a],
            b: ComponentClass::ALL[b],
            count,
        })
        .collect();
    pairs.sort_by(|x, y| {
        y.count
            .cmp(&x.count)
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    CorrelatedComponents {
        pairs,
        servers_with_pairs: servers_with_pairs.len(),
        pair_server_share: servers_with_pairs.len() as f64 / ever_failed.len().max(1) as f64,
        misc_involved_share: incidents_with_misc as f64 / incidents.max(1) as f64,
    }
}

#[test]
fn correlation_matches_the_oracle() {
    for (seed, trace) in traces() {
        assert_same(
            Correlation::new(trace).component_pairs(),
            component_pairs(trace),
            &format!("seed {seed} component_pairs"),
        );
    }
}

/// Table VIII: every failure lands in one bucket per phase, keyed by
/// `(phase, class, time / skew)`; each bucket of 2..=`max_bucket`
/// members records, for every pair of distinct servers, the time of the
/// pair's earlier member.
fn synchronous_groups(
    trace: &Trace,
    skew_secs: u64,
    min_occurrences: usize,
    max_bucket: usize,
) -> Vec<SynchronousGroup> {
    let mut buckets: HashMap<(u8, u8, u64), Vec<(ServerId, SimTime)>> = HashMap::new();
    for fot in failures(trace, None) {
        let secs = fot.error_time.as_secs();
        for phase in 0..2u8 {
            let key = (
                phase,
                fot.device.index() as u8,
                (secs + phase as u64 * skew_secs / 2) / skew_secs,
            );
            buckets
                .entry(key)
                .or_default()
                .push((fot.server, fot.error_time));
        }
    }

    let mut pair_times: HashMap<(ServerId, ServerId), Vec<SimTime>> = HashMap::new();
    for members in buckets.into_values() {
        if members.len() < 2 || members.len() > max_bucket {
            continue;
        }
        for (i, &(s1, t1)) in members.iter().enumerate() {
            for &(s2, _) in members.iter().skip(i + 1) {
                if s1 == s2 {
                    continue;
                }
                let key = if s1 < s2 { (s1, s2) } else { (s2, s1) };
                pair_times.entry(key).or_default().push(t1);
            }
        }
    }

    let mut groups: Vec<SynchronousGroup> = pair_times
        .into_iter()
        .map(|((s1, s2), mut times)| {
            times.sort_unstable();
            times.dedup_by(|b, a| b.since(*a).as_secs() < skew_secs);
            SynchronousGroup {
                servers: vec![s1, s2],
                occurrences: times,
            }
        })
        .filter(|g| g.occurrences.len() >= min_occurrences)
        .collect();
    groups.sort_by(|a, b| {
        b.occurrences
            .len()
            .cmp(&a.occurrences.len())
            .then(a.servers.cmp(&b.servers))
    });
    groups
}

#[test]
fn synchronous_groups_match_the_oracle() {
    for (seed, trace) in traces() {
        for (skew, min_occurrences, max_bucket) in [(60, 3, 6), (600, 2, 12)] {
            assert_same(
                Correlation::new(trace).synchronous_groups(skew, min_occurrences, max_bucket),
                synchronous_groups(trace, skew, min_occurrences, max_bucket),
                &format!("seed {seed} synchronous_groups({skew}, {min_occurrences}, {max_bucket})"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// §VII-A prediction
// ---------------------------------------------------------------------------

/// The warning→fatal predictor by definition: per `(server, class, slot)`
/// stream, a non-censored warning is confirmed by a later fatal within
/// the horizon, and a fatal is predicted by an earlier warning within it.
fn evaluate(trace: &Trace, horizon_days: u64, class: Option<ComponentClass>) -> PredictorEval {
    let horizon = SimDuration::from_days(horizon_days);
    let end = trace.end_time();
    let mut streams: HashMap<(ServerId, u8, u8), Vec<(SimTime, Severity)>> = HashMap::new();
    for fot in failures(trace, class) {
        if fot.device == ComponentClass::Miscellaneous {
            continue;
        }
        let key = (fot.server, fot.device.index() as u8, fot.device_slot);
        streams
            .entry(key)
            .or_default()
            .push((fot.error_time, fot.failure_type.severity()));
    }

    let (mut warnings, mut confirmed, mut fatals, mut predicted) = (0, 0, 0, 0);
    let mut leads: Vec<f64> = Vec::new();
    for stream in streams.values() {
        for (i, &(t, severity)) in stream.iter().enumerate() {
            match severity {
                Severity::Warning => {
                    if t + horizon >= end {
                        continue;
                    }
                    warnings += 1;
                    if let Some(&(tf, _)) = stream[i + 1..]
                        .iter()
                        .find(|(t2, s2)| *s2 == Severity::Fatal && t2.since(t) <= horizon)
                    {
                        confirmed += 1;
                        leads.push(tf.since(t).as_days_f64());
                    }
                }
                Severity::Fatal => {
                    fatals += 1;
                    let was_predicted = stream[..i]
                        .iter()
                        .any(|(t2, s2)| *s2 == Severity::Warning && t.since(*t2) <= horizon);
                    if was_predicted {
                        predicted += 1;
                    }
                }
            }
        }
    }
    PredictorEval {
        horizon_days,
        warnings,
        confirmed_warnings: confirmed,
        fatals,
        predicted_fatals: predicted,
        precision: confirmed as f64 / warnings.max(1) as f64,
        recall: predicted as f64 / fatals.max(1) as f64,
        median_lead_days: dcfail::stats::median(&leads),
    }
}

#[test]
fn prediction_matches_the_oracle() {
    const HORIZONS: [u64; 5] = [1, 3, 7, 14, 30];
    let classes = [
        None,
        Some(ComponentClass::Hdd),
        Some(ComponentClass::Memory),
        Some(ComponentClass::Cpu),
    ];
    for (seed, trace) in traces() {
        let prediction = Prediction::new(trace);
        for class in classes {
            let oracle: Vec<PredictorEval> = HORIZONS
                .iter()
                .map(|&h| evaluate(trace, h, class))
                .collect();
            for (&h, expected) in HORIZONS.iter().zip(&oracle) {
                assert_same(
                    prediction.evaluate(h, class),
                    *expected,
                    &format!("seed {seed} evaluate({h}, {class:?})"),
                );
            }
            assert_same(
                prediction.sweep(&HORIZONS, class),
                oracle,
                &format!("seed {seed} sweep({class:?})"),
            );
        }
        let config = ReplayConfig::default();
        assert_same(
            replay(trace, &config).summary.predictor_eval,
            evaluate(trace, config.predictor_horizon_days, None),
            &format!("seed {seed} replay predictor"),
        );
    }
}

// ---------------------------------------------------------------------------
// §VI response
// ---------------------------------------------------------------------------

/// Response times in days of the responded tickets among `fots`.
fn rts<'a>(fots: impl Iterator<Item = Fot<'a>>) -> Vec<f64> {
    fots.filter_map(|f| f.response_time())
        .map(|d| d.as_days_f64())
        .collect()
}

fn rt_stats(rts: Vec<f64>) -> Result<RtStats, StatsError> {
    let e = Ecdf::new(rts)?;
    Ok(RtStats {
        n: e.len(),
        mean_days: e.mean(),
        median_days: e.median(),
        p90_days: e.quantile(0.9),
        over_140d: e.tail_fraction(140.0),
        over_200d: e.tail_fraction(200.0),
    })
}

#[test]
fn response_matches_the_oracle() {
    for (seed, trace) in traces() {
        let response = Response::new(trace);
        for category in FotCategory::ALL {
            let what = format!("seed {seed} {category:?}");
            let oracle = rts(trace.fots().iter().filter(|f| f.category == category));
            assert_same(
                response.rts_of_category(category),
                oracle.clone(),
                &format!("{what} rts_of_category"),
            );
            assert_same(
                response.rt_of_category(category),
                rt_stats(oracle.clone()),
                &format!("{what} rt_of_category"),
            );
            assert_same(
                response.rt_cdf(category, 100),
                Ecdf::new(oracle).map(|e| e.sampled_points(100)),
                &format!("{what} rt_cdf"),
            );
        }
        let mut per_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for class in ComponentClass::ALL {
            let of_class = trace.fots().iter().filter(|f| f.device == class);
            per_class.insert(class.index(), rts(of_class));
        }
        for min_n in [1, 30] {
            let oracle: Vec<(ComponentClass, RtStats)> = per_class
                .iter()
                .filter(|(_, rts)| rts.len() >= min_n)
                .filter_map(|(&i, rts)| {
                    rt_stats(rts.clone())
                        .ok()
                        .map(|s| (ComponentClass::ALL[i], s))
                })
                .collect();
            assert_same(
                response.rt_by_class(min_n),
                oracle,
                &format!("seed {seed} rt_by_class({min_n})"),
            );
        }
    }
}

/// Median by definition: the lower middle of the sorted values.
fn sorted_median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    sorted.get(sorted.len().checked_sub(1)? / 2).copied()
}

/// Figure 11 by definition: responded HDD tickets grouped per product
/// line in an ordered map.
fn line_points(trace: &Trace, min_failures: usize) -> Vec<LineRtPoint> {
    let mut per_line: BTreeMap<ProductLineId, Vec<f64>> = BTreeMap::new();
    for fot in trace
        .fots()
        .iter()
        .filter(|f| f.device == ComponentClass::Hdd)
    {
        if let Some(rt) = fot.response_time() {
            per_line
                .entry(fot.product_line)
                .or_default()
                .push(rt.as_days_f64());
        }
    }
    let mut points: Vec<LineRtPoint> = per_line
        .into_iter()
        .filter(|(_, rts)| rts.len() >= min_failures)
        .map(|(line, rts)| LineRtPoint {
            line,
            hdd_failures: rts.len(),
            median_rt_days: sorted_median(&rts).expect("non-empty"),
        })
        .collect();
    points.sort_by_key(|p| std::cmp::Reverse(p.hdd_failures));
    points
}

/// Figure 11's summary by definition, pooling the top lines' tickets.
fn line_summary(trace: &Trace, points: &[LineRtPoint], cutoff: usize) -> Option<LineRtSummary> {
    let top: HashSet<ProductLineId> = points
        .iter()
        .take((points.len() / 100).max(1))
        .map(|p| p.line)
        .collect();
    let pooled: Vec<f64> = trace
        .fots()
        .iter()
        .filter(|f| f.device == ComponentClass::Hdd && top.contains(&f.product_line))
        .filter_map(|f| f.response_time())
        .map(|d| d.as_days_f64())
        .collect();
    let top1pct_median_days = sorted_median(&pooled)?;
    let small: Vec<&LineRtPoint> = points.iter().filter(|p| p.hdd_failures < cutoff).collect();
    let small_line_over_100d_share = if small.is_empty() {
        0.0
    } else {
        small.iter().filter(|p| p.median_rt_days > 100.0).count() as f64 / small.len() as f64
    };
    let medians: Vec<f64> = points.iter().map(|p| p.median_rt_days).collect();
    let mean = medians.iter().sum::<f64>() / medians.len() as f64;
    let var = medians.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / medians.len() as f64;
    Some(LineRtSummary {
        top1pct_median_days,
        small_line_over_100d_share,
        std_dev_days: var.sqrt(),
    })
}

#[test]
fn product_line_response_matches_the_oracle() {
    for (seed, trace) in traces() {
        let response = Response::new(trace);
        for min_failures in [0, 1, 5, 20] {
            let points = response.rt_by_product_line_hdd(min_failures);
            let oracle = line_points(trace, min_failures);
            assert_same(
                &points,
                &oracle,
                &format!("seed {seed} lines({min_failures})"),
            );
            for cutoff in [5, 100] {
                assert_same(
                    response.line_rt_summary(&points, cutoff),
                    line_summary(trace, &oracle, cutoff),
                    &format!("seed {seed} line summary({min_failures}, {cutoff})"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// §II overview
// ---------------------------------------------------------------------------

#[test]
fn type_breakdown_matches_the_oracle() {
    for (seed, trace) in traces() {
        let overview = Overview::new(trace);
        for class in ComponentClass::ALL {
            let mut counts: BTreeMap<FailureType, usize> = BTreeMap::new();
            for fot in failures(trace, Some(class)) {
                *counts.entry(fot.failure_type).or_default() += 1;
            }
            let total = counts.values().sum::<usize>().max(1) as f64;
            let mut oracle: Vec<TypeShare> = counts
                .into_iter()
                .map(|(failure_type, count)| TypeShare {
                    failure_type,
                    count,
                    share: count as f64 / total,
                })
                .collect();
            oracle.sort_by_key(|r| std::cmp::Reverse(r.count));
            assert_same(
                overview.type_breakdown(class),
                oracle,
                &format!("seed {seed} type_breakdown({class:?})"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// §VII-A backlog
// ---------------------------------------------------------------------------

/// Open `D_fixing` tickets per window day by definition: open from the
/// error day through the close day; tickets opened outside the window
/// are left out.
fn open_timeline(trace: &Trace, class: Option<ComponentClass>) -> Vec<BacklogPoint> {
    let start = trace.info().start;
    let days = trace.info().days;
    (0..days)
        .map(|d| {
            let day = start.day_index() + d;
            let count = trace
                .fots()
                .iter()
                .filter(|f| {
                    f.category == FotCategory::Fixing && class.is_none_or(|c| f.device == c)
                })
                .filter(|f| f.error_time >= start && f.error_time < trace.end_time())
                .filter(|f| {
                    let close = f.response.expect("fixing tickets respond").op_time;
                    f.error_time.day_index() <= day && day <= close.day_index()
                })
                .count();
            BacklogPoint { day, count }
        })
        .collect()
}

/// Servers with an in-window `D_error` failure on or before each day.
fn degraded_timeline(trace: &Trace) -> Vec<BacklogPoint> {
    let start = trace.info().start;
    let mut first: HashMap<ServerId, u64> = HashMap::new();
    for fot in trace
        .fots()
        .iter()
        .filter(|f| f.category == FotCategory::Error)
    {
        if fot.error_time < start {
            continue;
        }
        let day = fot.error_time.day_index();
        let entry = first.entry(fot.server).or_insert(day);
        *entry = (*entry).min(day);
    }
    (0..trace.info().days)
        .map(|d| {
            let day = start.day_index() + d;
            BacklogPoint {
                day,
                count: first.values().filter(|&&f| f <= day).count(),
            }
        })
        .collect()
}

#[test]
fn backlog_matches_the_oracle() {
    for (seed, trace) in traces_and_narrowed() {
        let trace = &*trace;
        let backlog = Backlog::new(trace);
        for class in [
            None,
            Some(ComponentClass::Hdd),
            Some(ComponentClass::Memory),
        ] {
            assert_same(
                backlog.open_timeline(class),
                open_timeline(trace, class),
                &format!("seed {seed} open_timeline({class:?})"),
            );
        }
        let degraded = degraded_timeline(trace);
        assert_same(
            backlog.degraded_timeline(),
            degraded.clone(),
            &format!("seed {seed} degraded_timeline"),
        );
        let open = open_timeline(trace, None);
        let mean_open = open.iter().map(|p| p.count as f64).sum::<f64>() / open.len().max(1) as f64;
        let peak = open
            .iter()
            .max_by_key(|p| p.count)
            .copied()
            .unwrap_or(BacklogPoint { day: 0, count: 0 });
        let servers = trace.servers().len().max(1) as f64;
        assert_same(
            backlog.summary(),
            BacklogSummary {
                mean_open,
                peak_open: peak.count,
                peak_day: peak.day,
                mean_open_per_1k_servers: mean_open * 1_000.0 / servers,
                degraded_share_at_end: degraded.last().map_or(0, |p| p.count) as f64 / servers,
            },
            &format!("seed {seed} backlog summary"),
        );
    }
}

// ---------------------------------------------------------------------------
// §V-B causal examples
// ---------------------------------------------------------------------------

/// Table VII by definition: every server's failures in time order, pairs
/// of the two classes at most `max_gap_secs` apart, servers in id order.
fn causal_examples(
    trace: &Trace,
    first: ComponentClass,
    second: ComponentClass,
    max_gap_secs: u64,
    limit: usize,
) -> Vec<CausalExample> {
    let mut out = Vec::new();
    for server in trace.servers() {
        let fots: Vec<Fot> = trace
            .fots()
            .iter()
            .filter(|f| f.server == server.id && f.is_failure())
            .collect();
        for (i, f1) in fots.iter().enumerate() {
            for f2 in &fots[i + 1..] {
                if f2.error_time.since(f1.error_time).as_secs() > max_gap_secs {
                    break;
                }
                if (f1.device, f2.device) == (first, second)
                    || (f1.device, f2.device) == (second, first)
                {
                    out.push(CausalExample {
                        server: server.id,
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

#[test]
fn causal_examples_match_the_oracle() {
    use ComponentClass::{Fan, Hdd, Memory, Miscellaneous, Power};
    for (seed, trace) in traces() {
        let correlation = Correlation::new(trace);
        for (first, second, gap, limit) in [
            (Power, Fan, 300, 5),
            (Hdd, Memory, 86_400, 50),
            (Memory, Hdd, 86_400, 50),
            (Hdd, Hdd, 3_600, 20),
            (Hdd, Miscellaneous, 7 * 86_400, 1_000),
        ] {
            assert_same(
                correlation.causal_examples(first, second, gap, limit),
                causal_examples(trace, first, second, gap, limit),
                &format!("seed {seed} causal_examples({first:?}, {second:?}, {gap}, {limit})"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The stream index, the report and the replay stream
// ---------------------------------------------------------------------------

#[test]
fn stream_index_matches_the_oracle() {
    for (seed, trace) in traces() {
        // Every non-misc component's failures: (time, is warning), in
        // ticket order, components in key order.
        let mut oracle: BTreeMap<(u32, u8, u8), Vec<(u64, bool)>> = BTreeMap::new();
        for fot in failures(trace, None) {
            if fot.device == ComponentClass::Miscellaneous {
                continue;
            }
            oracle
                .entry((fot.server.raw(), fot.device.index() as u8, fot.device_slot))
                .or_default()
                .push((
                    fot.error_time.as_secs(),
                    fot.failure_type.severity() == Severity::Warning,
                ));
        }
        let streams = trace.streams();
        let kernel: BTreeMap<(u32, u8, u8), Vec<(u64, bool)>> = (0..streams.len())
            .map(|c| {
                let stream = streams.stream(c);
                let events = stream
                    .times()
                    .iter()
                    .copied()
                    .zip(stream.warnings().iter().copied());
                (streams.component(c), events.collect())
            })
            .collect();
        let in_order = (1..streams.len()).all(|c| streams.component(c - 1) < streams.component(c));
        assert!(in_order, "seed {seed}: components out of key order");
        assert_same(kernel, oracle, &format!("seed {seed} streams"));
    }
}

/// The study keeps what `analyze` computed, and the renderers read it:
/// the report is the same bytes whether or not `analyze` ran first, at
/// any thread count.
#[test]
fn report_is_the_same_with_and_without_a_prior_analyze() {
    for (seed, trace) in traces() {
        let fresh = render_all(&FailureStudy::new(trace));
        for threads in [1, 4] {
            let study = FailureStudy::new(trace);
            let report = study.analyze(&StudyOptions::with_threads(threads));
            assert_eq!(render_all(&study), fresh, "seed {seed} threads {threads}");
            assert_eq!(
                report,
                FailureStudy::new(trace).analyze(&StudyOptions::default()),
                "seed {seed} threads {threads}"
            );
        }
    }
}

#[test]
fn written_replay_lines_rehash_to_the_event_digest() {
    for (seed, trace) in traces() {
        let outcome = replay(trace, &ReplayConfig::default());
        let (mut digest, mut lines) = (FNV_OFFSET, 0usize);
        outcome
            .for_each_line(trace, |_, line| {
                digest = fnv1a(fnv1a(digest, line), b"\n");
                lines += 1;
                Ok::<_, ()>(())
            })
            .expect("hashing cannot fail");
        assert_eq!(lines, outcome.events.len(), "seed {seed}");
        assert_eq!(digest, outcome.summary.event_digest, "seed {seed}");
    }
}
