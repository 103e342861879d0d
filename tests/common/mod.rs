//! Shared fixtures for the integration tests: simulated traces generated
//! once per test binary.

use std::sync::OnceLock;

use dcfail::sim::Scenario;
use dcfail::trace::Trace;

/// The shared medium-scale trace (20k servers, 1,411 days, ~33k FOTs).
#[allow(dead_code)]
pub fn medium() -> &'static Trace {
    static T: OnceLock<Trace> = OnceLock::new();
    T.get_or_init(|| {
        Scenario::medium()
            .seed(0x1DC)
            .simulate(&dcfail::sim::RunOptions::default())
            .expect("medium scenario runs")
    })
}

/// The shared small trace (2k servers, 360 days).
#[allow(dead_code)]
pub fn small() -> &'static Trace {
    static T: OnceLock<Trace> = OnceLock::new();
    T.get_or_init(|| {
        Scenario::small()
            .seed(0x1DC)
            .simulate(&dcfail::sim::RunOptions::default())
            .expect("small scenario runs")
    })
}

/// `trace` with its observation window narrowed by `days` at each end:
/// the same tickets, some of them now before the window start or after
/// its end.
#[allow(dead_code)]
pub fn narrowed(trace: &Trace, days: u64) -> Trace {
    let info = trace.info();
    let window = dcfail::trace::TraceInfo {
        start: info.start + dcfail::trace::SimDuration::from_days(days),
        days: info.days - 2 * days,
        ..info.clone()
    };
    Trace::new(
        window,
        trace.servers().to_vec(),
        trace.data_centers().to_vec(),
        trace.product_lines().to_vec(),
        trace.fots().iter().collect(),
    )
    .expect("same tickets, narrower window")
}
