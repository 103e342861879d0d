//! Failure prediction (§VII-A).
//!
//! The paper: "They even designed a tool to predict component failures a
//! couple of days early, hoping the operators to react before the failure
//! actually happens." This module implements and evaluates that tool's
//! core signal: **warning-severity tickets predict fatal failures of the
//! same component** (SMARTFail → NotReady, DIMMCE → DIMMUE, …).
//!
//! Evaluation is fully trace-driven: for a horizon `H`, a warning is a
//! true positive if the same `(server, class, slot)` files a fatal ticket
//! within `H` days; a fatal failure counts as *predicted* if any warning
//! preceded it within `H`.
//!
//! Both this evaluation and the replay's online predictor
//! ([`crate::replay`]) walk the trace's one per-component stream index
//! ([`Trace::streams`]): every component's failures in time order, stored
//! as flat columns. A cursor consumes one stream an event at a time, so
//! the offline scan and the online feed run the same code.

use dcf_trace::{ComponentClass, SimDuration, StreamIndex, Trace};

/// Evaluation of the warning-based predictor at one horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorEval {
    /// Prediction horizon in days.
    pub horizon_days: u64,
    /// Warning tickets evaluated.
    pub warnings: usize,
    /// Warnings followed by a same-component fatal ticket within the
    /// horizon (true positives).
    pub confirmed_warnings: usize,
    /// Fatal tickets in the evaluation window.
    pub fatals: usize,
    /// Fatal tickets preceded by a same-component warning within the
    /// horizon.
    pub predicted_fatals: usize,
    /// `confirmed_warnings / warnings`.
    pub precision: f64,
    /// `predicted_fatals / fatals`.
    pub recall: f64,
    /// Median lead time (days) between a warning and the fatal ticket it
    /// predicted; `None` when nothing was predicted.
    pub median_lead_days: Option<f64>,
}

impl PredictorEval {
    /// Harmonic mean of precision and recall.
    ///
    /// Returns `0.0` — never `NaN` — when `precision + recall` is zero or
    /// not a finite positive number, so downstream scoring can rank and
    /// serialize evaluations without special-casing empty windows.
    pub fn f1(&self) -> f64 {
        let p = self.precision;
        let r = self.recall;
        let sum = p + r;
        if sum.is_nan() || sum <= 0.0 {
            0.0
        } else {
            2.0 * p * r / sum
        }
    }
}

/// Running §VII-A counts over any number of streams.
#[derive(Debug, Default)]
pub(crate) struct PredictorTally {
    warnings: usize,
    confirmed: usize,
    fatals: usize,
    predicted: usize,
    leads: Vec<f64>,
}

impl PredictorTally {
    /// The evaluation these counts amount to at `horizon_days`.
    pub(crate) fn eval(&self, horizon_days: u64) -> PredictorEval {
        PredictorEval {
            horizon_days,
            warnings: self.warnings,
            confirmed_warnings: self.confirmed,
            fatals: self.fatals,
            predicted_fatals: self.predicted,
            precision: self.confirmed as f64 / self.warnings.max(1) as f64,
            recall: self.predicted as f64 / self.fatals.max(1) as f64,
            median_lead_days: dcf_stats::median(&self.leads),
        }
    }
}

/// The horizon and censoring cut-off one evaluation runs with, in
/// seconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Horizon {
    secs: u64,
    end: u64,
}

impl Horizon {
    /// `horizon_days` over `trace`'s observation window.
    pub(crate) fn new(trace: &Trace, horizon_days: u64) -> Self {
        Self {
            secs: SimDuration::from_days(horizon_days).as_secs(),
            end: trace.end_time().as_secs(),
        }
    }

    /// Whether a warning at `t` can be confirmed before the window ends.
    fn confirmable(self, t: u64) -> bool {
        t + self.secs < self.end
    }
}

/// Incremental predictor state of one stream: feed it the stream's
/// events in order, one [`StreamCursor::advance`] each. The cursor reads
/// the stream only to look back over the warnings a fatal resolves.
///
/// A fatal is predicted when the latest earlier warning lies within the
/// horizon (streams are time-ordered, so no earlier warning can be
/// closer). A fatal also resolves every warning since the previous fatal:
/// within the horizon the warning is confirmed; beyond it the warning can
/// never be, since later fatals are later still.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamCursor {
    /// Position of the next event.
    next: u32,
    /// First position after the latest fatal.
    unresolved: u32,
    /// Time of the latest warning, if any.
    last_warning: Option<u64>,
}

impl StreamCursor {
    /// Consumes the next event of stream `c` of `streams`, at time `t`
    /// and a warning when `warning` is set, into `tally`. Returns the
    /// event's position when it is a predicted fatal.
    pub(crate) fn advance(
        &mut self,
        streams: &StreamIndex,
        c: usize,
        (t, warning): (u64, bool),
        h: Horizon,
        tally: &mut PredictorTally,
    ) -> Option<usize> {
        let pos = self.next as usize;
        self.next += 1;
        if warning {
            if h.confirmable(t) {
                tally.warnings += 1;
            }
            self.last_warning = Some(t);
            return None;
        }
        tally.fatals += 1;
        let from = self.unresolved as usize;
        if from < pos {
            let stream = streams.stream(c);
            let (times, warnings) = (&stream.times()[from..pos], &stream.warnings()[from..pos]);
            for (&tw, &warning) in times.iter().zip(warnings) {
                if warning && h.confirmable(tw) && t - tw <= h.secs {
                    tally.confirmed += 1;
                    tally
                        .leads
                        .push(SimDuration::from_secs(t - tw).as_days_f64());
                }
            }
        }
        self.unresolved = self.next;
        let predicted = self.last_warning.is_some_and(|tw| t - tw <= h.secs);
        if predicted {
            tally.predicted += 1;
        }
        predicted.then_some(pos)
    }
}

/// §VII-A prediction analysis over one trace.
#[derive(Debug, Clone)]
pub struct Prediction<'a> {
    trace: &'a Trace,
}

impl<'a> Prediction<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    /// Evaluates the warning→fatal predictor at `horizon_days`, optionally
    /// restricted to one component class.
    ///
    /// Warnings too close to the end of the window to be confirmable (their
    /// horizon extends past it) are excluded from the precision
    /// denominator, avoiding censoring bias.
    pub fn evaluate(&self, horizon_days: u64, class: Option<ComponentClass>) -> PredictorEval {
        let mut evals = self.sweep(&[horizon_days], class);
        evals.pop().expect("one horizon in, one evaluation out")
    }

    /// Evaluates the predictor across several horizons — the
    /// precision/recall trade-off curve an FMS team would tune against.
    ///
    /// One walk over the streams serves every horizon: each stream is
    /// replayed once per horizon while it is in cache, into that
    /// horizon's own tally, so every evaluation equals its
    /// [`Prediction::evaluate`].
    pub fn sweep(
        &self,
        horizons_days: &[u64],
        class: Option<ComponentClass>,
    ) -> Vec<PredictorEval> {
        let index = self.trace.streams();
        let horizons: Vec<Horizon> = horizons_days
            .iter()
            .map(|&h| Horizon::new(self.trace, h))
            .collect();
        let mut tallies: Vec<PredictorTally> =
            horizons.iter().map(|_| PredictorTally::default()).collect();
        for c in 0..index.len() {
            if class.is_some_and(|k| index.component(c).1 as usize != k.index()) {
                continue;
            }
            let stream = index.stream(c);
            for (&h, tally) in horizons.iter().zip(&mut tallies) {
                let mut cursor = StreamCursor::default();
                for event in stream
                    .times()
                    .iter()
                    .copied()
                    .zip(stream.warnings().iter().copied())
                {
                    cursor.advance(index, c, event, h, tally);
                }
            }
        }
        horizons_days
            .iter()
            .zip(&tallies)
            .map(|(&h, tally)| tally.eval(h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::medium_trace;

    #[test]
    fn metrics_are_probabilities_and_leads_within_horizon() {
        let trace = medium_trace();
        let eval = Prediction::new(&trace).evaluate(7, None);
        assert!(eval.warnings > 0);
        assert!(eval.fatals > 0);
        assert!((0.0..=1.0).contains(&eval.precision));
        assert!((0.0..=1.0).contains(&eval.recall));
        if let Some(lead) = eval.median_lead_days {
            assert!((0.0..=7.0).contains(&lead));
        }
        assert!((0.0..=1.0).contains(&eval.f1()));
    }

    #[test]
    fn longer_horizons_never_reduce_recall() {
        let trace = medium_trace();
        let p = Prediction::new(&trace);
        let evals = p.sweep(&[1, 7, 30, 90], None);
        for w in evals.windows(2) {
            assert!(
                w[1].recall >= w[0].recall - 1e-12,
                "recall must grow with horizon: {:?}",
                evals.iter().map(|e| e.recall).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn repeating_components_make_warnings_predictive() {
        // The repeat process guarantees some warning→fatal chains, so the
        // predictor beats a tiny baseline at a 30-day horizon.
        let trace = medium_trace();
        let eval = Prediction::new(&trace).evaluate(30, None);
        assert!(
            eval.predicted_fatals > 0,
            "some fatal failures should be predicted: {eval:?}"
        );
    }

    #[test]
    fn class_filter_restricts_population() {
        let trace = medium_trace();
        let p = Prediction::new(&trace);
        let all = p.evaluate(7, None);
        let hdd = p.evaluate(7, Some(ComponentClass::Hdd));
        assert!(hdd.warnings <= all.warnings);
        assert!(hdd.fatals <= all.fatals);
        let cpu = p.evaluate(7, Some(ComponentClass::Cpu));
        assert!(cpu.fatals <= hdd.fatals);
    }

    #[test]
    fn f1_handles_zero_division() {
        let e = PredictorEval {
            horizon_days: 1,
            warnings: 0,
            confirmed_warnings: 0,
            fatals: 0,
            predicted_fatals: 0,
            precision: 0.0,
            recall: 0.0,
            median_lead_days: None,
        };
        assert_eq!(e.f1(), 0.0);
    }

    #[test]
    fn f1_is_zero_not_nan_for_pathological_inputs() {
        let mut e = PredictorEval {
            horizon_days: 1,
            warnings: 0,
            confirmed_warnings: 0,
            fatals: 0,
            predicted_fatals: 0,
            precision: f64::NAN,
            recall: 0.0,
            median_lead_days: None,
        };
        assert_eq!(e.f1(), 0.0, "NaN precision must not poison f1");
        e.precision = 0.0;
        e.recall = f64::NAN;
        assert_eq!(e.f1(), 0.0, "NaN recall must not poison f1");
        e.precision = -1.0;
        e.recall = 0.5;
        assert_eq!(e.f1(), 0.0, "non-positive p+r yields 0");
    }
}
