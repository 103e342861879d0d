//! Failure prediction (§VII-A): evaluate the FMS team's warning-based
//! early-failure predictor, then mine the context of a real repeat case
//! with the §VII-B FOT miner.
//!
//! ```text
//! cargo run --release --example failure_prediction
//! ```

use dcfail::core::mining::ContextFlag;
use dcfail::core::FailureStudy;
use dcfail::report::{pct, TextTable};
use dcfail::sim::{RunOptions, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = Scenario::medium()
        .seed(11)
        .simulate(&RunOptions::default())?;
    let study = FailureStudy::new(&trace);

    // 1. Sweep the warning→failure predictor across horizons.
    println!("== Warning-based failure prediction (SMART-style alerts → fatal failures) ==\n");
    let mut t = TextTable::new(vec![
        "Horizon",
        "Warnings",
        "Precision",
        "Fatals",
        "Recall",
        "F1",
        "Median lead",
    ]);
    for eval in study.prediction().sweep(&[1, 3, 7, 14, 30], None) {
        t.row(vec![
            format!("{} d", eval.horizon_days),
            eval.warnings.to_string(),
            pct(eval.precision),
            eval.fatals.to_string(),
            pct(eval.recall),
            format!("{:.3}", eval.f1()),
            eval.median_lead_days
                .map(|d| format!("{d:.1} d"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(the paper §VII-A: the FMS team predicts failures 'a couple of days early',\n\
         yet operators ignore the warnings — compare these precisions with the\n\
         multi-day response medians from the operator_response_audit example)\n"
    );

    // 2. Context-mine the most repeat-prone ticket (§VII-B).
    println!("== FOT context mining: the paper's proposed anti-stateless tool ==\n");
    let miner = study.miner();
    // The server with the most failures is the natural BBU-style suspect.
    let busiest = trace
        .servers()
        .iter()
        .max_by_key(|s| {
            trace
                .fots_of_server(s.id)
                .filter(|f| f.is_failure())
                .count()
        })
        .expect("non-empty fleet");
    let contexts = miner.server_contexts(busiest.id);
    println!(
        "server {} ({}) filed {} failure tickets",
        busiest.id,
        busiest.hostname(),
        contexts.len()
    );
    if let Some(last) = contexts.last() {
        println!("\ncontext of its latest ticket ({}):", last.fot);
        println!(
            "  component history: {} earlier identical failures",
            last.component_history.len()
        );
        println!("  same-day neighbors: {:?}", last.same_day_neighbors);
        println!(
            "  class activity today: {} (median day: {})",
            last.class_count_today, last.class_daily_median
        );
        println!(
            "  co-failing servers (±60 s): {:?}",
            last.co_failing_servers
        );
        println!("  advisory flags: {:?}", last.flags);
        if last.flags.contains(&ContextFlag::RepeatingComponent) {
            println!(
                "\n  → the FMS marked each occurrence 'solved', but the component keeps\n\
                 coming back: stop replacing the symptom and find the root cause\n\
                 (the paper's RAID-BBU server filed 400+ tickets this way)."
            );
        }
    }
    Ok(())
}
