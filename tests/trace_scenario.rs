//! The span tracer on the committed straggler scenario, end to end.
//!
//! Runs `scenarios/heterogeneous.json` untraced, then traced, the way
//! `scenario_runner --deterministic --trace T --save-model M` does, and checks
//! the reports' flat profiles, the Chrome export, and that tracing does not
//! perturb a single report byte. One `#[test]`, because the tracer is
//! process-global.

use newton_admm_repro::prelude::*;
use newton_admm_repro::trace::{self, TagProfile};

const SCENARIO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/heterogeneous.json");

/// Runs the scenario and zeroes the host wall clock, as `--deterministic`
/// does.
fn run_deterministic(scenario: &ScenarioSpec) -> Vec<RunReport> {
    let mut reports = scenario.run().expect("the heterogeneous scenario runs");
    for report in &mut reports {
        report.wall_time_sec = 0.0;
        for record in &mut report.history.records {
            record.wall_time_sec = 0.0;
        }
    }
    reports
}

/// The `tag` row of a profile table, if the tag recorded anything.
fn row<'a>(rows: &'a [TagProfile], tag: &str) -> Option<&'a TagProfile> {
    rows.iter().find(|t| t.tag == tag)
}

/// Schema-valid profiles, one per rank, and the straggler signature: the
/// fleet spends more simulated time waiting at collectives than
/// transferring, and the waiting is skewed (the straggler sets the pace, so
/// it idles an order of magnitude less than the rank that waits most).
fn check_profile(report: &RunReport) {
    let solver = &report.solver;
    let profile = report
        .trace_profile
        .as_ref()
        .unwrap_or_else(|| panic!("{solver}: traced report carries no trace_profile"));
    profile
        .validate_schema()
        .unwrap_or_else(|e| panic!("{solver}: malformed trace_profile: {e}"));
    assert_eq!(
        profile.per_rank.len(),
        report.num_workers,
        "{solver}: the profile does not cover every rank"
    );

    let idle = row(&profile.merged, "IdleWait").unwrap_or_else(|| panic!("{solver}: no IdleWait time in the fleet"));
    let coll = row(&profile.merged, "CollectiveRound").unwrap_or_else(|| panic!("{solver}: no CollectiveRound spans"));
    assert!(
        idle.self_sec > coll.self_sec,
        "{solver}: fleet idle-wait {:.6}s does not dominate transfer time {:.6}s",
        idle.self_sec,
        coll.self_sec
    );
    let per_rank_idle: Vec<f64> = profile
        .per_rank
        .iter()
        .map(|r| row(&r.tags, "IdleWait").map_or(0.0, |t| t.self_sec))
        .collect();
    let max_idle = per_rank_idle.iter().cloned().fold(0.0, f64::max);
    let min_idle = per_rank_idle.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max_idle > 0.0 && max_idle > 10.0 * min_idle,
        "{solver}: per-rank idle-wait {per_rank_idle:?} is not straggler-skewed"
    );
}

/// The deterministic Chrome export parses, passes the structural validator,
/// carries the four compute layers on every rank pid, and covers all five
/// instrumented layers across the file (`serve` rides the artifact-io lane).
fn check_chrome(lanes: &[LaneTrace]) {
    let chrome = export_chrome_trace(lanes, true);
    let value = serde_json::parse_value(&chrome).expect("the Chrome trace is valid JSON");
    let stats = validate_chrome_value(&value).expect("the Chrome trace passes the structural validator");
    assert!(stats.event_count > 0, "the Chrome trace holds no span or instant events");
    assert!(
        stats.pids.len() >= 2,
        "the Chrome trace covers only pids {:?}, not a distributed run",
        stats.pids
    );
    for (pid, cats) in &stats.cats_by_pid {
        for layer in ["cluster", "core", "device", "solver"] {
            assert!(
                cats.iter().any(|c| c == layer),
                "pid {pid} has no `{layer}` events (cats: {cats:?})"
            );
        }
    }
    for layer in ["cluster", "core", "device", "serve", "solver"] {
        assert!(
            stats.all_cats.iter().any(|c| c == layer),
            "the Chrome trace has no `{layer}` events (cats: {:?})",
            stats.all_cats
        );
    }
}

#[test]
fn traced_heterogeneous_scenario_shows_the_straggler_and_leaves_reports_unchanged() {
    let json = std::fs::read_to_string(SCENARIO).expect("the committed scenario is readable");
    let scenario = ScenarioSpec::from_json(&json).expect("the committed scenario parses");

    let untraced = run_deterministic(&scenario);

    trace::set_enabled(true);
    let traced = run_deterministic(&scenario);
    // Save the first solver's model under its own recorder, so the
    // ArtifactIo instant lands on a dedicated lane.
    let dir = std::env::temp_dir().join(format!("nadmm_trace_scenario_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let model_path = dir.join("model.nadmm");
    let artifact = artifact_for_scenario(&scenario, &traced[0]).expect("the first report yields an artifact");
    trace::install(0);
    let saved = artifact.save(model_path.to_str().expect("a UTF-8 temp path"));
    let io_trace = trace::uninstall().expect("the save ran under an installed recorder");
    trace::sink_deposit("artifact-io", vec![io_trace]);
    let lanes = trace::sink_drain();
    trace::set_enabled(false);
    saved.expect("the model artifact saves");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(traced.len(), scenario.solvers.len());
    assert_eq!(untraced.len(), traced.len());
    for (plain, traced) in untraced.iter().zip(&traced) {
        traced
            .validate_schema()
            .unwrap_or_else(|e| panic!("{}: schema-invalid traced report: {e}", traced.solver));
        check_profile(traced);
        let stripped = RunReport {
            trace_profile: None,
            ..traced.clone()
        };
        assert!(
            plain.to_json().expect("finite report") == stripped.to_json().expect("finite report"),
            "{}: tracing changed the report beyond its trace_profile",
            plain.solver
        );
    }
    check_chrome(&lanes);
}
