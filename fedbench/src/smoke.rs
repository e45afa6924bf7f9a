//! Smoke tests at `--scale smoke` (`cargo test --manifest-path
//! fedbench/Cargo.toml`, a few seconds): the contract between the binary and
//! `BENCHMARK.json`, determinism of the inputs, and that a wrong answer is
//! caught.

use crate::fixture::{Scale, Unwrapped};
use crate::run::{end_to_end, measure, run_pass, setup, Failures, Options, Outcome};
use crate::sys::{percentile, Json};
use crate::workload::{Class, Workload, CLASSES, WORKLOADS};
use std::collections::BTreeMap;

fn smoke(workload: Workload, seed: u64) -> Options {
    Options {
        scale: Scale::smoke(),
        trace_dir: std::env::temp_dir().join("fedbench-smoke-trace"),
        ..Options::new(workload, seed, 1)
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` pairs declared under `key`.
fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .expect(key)
        .as_array()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_clean(outcome: &Outcome, what: &str) {
    assert_eq!(
        outcome.failures.count, 0,
        "{what}: {:?}",
        outcome.failures.notes
    );
    assert!(outcome.attempted >= 1);
}

#[test]
fn benchmark_json_names_the_five_workloads() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .as_array()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.map(Workload::name));
}

/// Both kinds of run emit exactly the metrics `BENCHMARK.json` declares,
/// in its order, with its units.
fn emits_every_declared_metric(workload: Workload) {
    let spec = benchmark_json();
    let plain = end_to_end(&smoke(workload, 1));
    assert_clean(&plain, workload.name());
    assert_eq!(emitted(&plain), declared(&spec, "end_to_end"), "--trace 0");
    assert!(
        plain.metrics.iter().all(|m| m.value > 0.0),
        "end-to-end metrics are never 0"
    );

    let traced = crate::layers::traced(&smoke(workload, 1));
    assert_clean(&traced, workload.name());
    assert_eq!(emitted(&traced), declared(&spec, "per_layer"), "--trace 1");
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
}

// One test per workload, so they run side by side.
#[test]
fn point_hit_emits_every_declared_metric() {
    emits_every_declared_metric(Workload::PointHit);
}

#[test]
fn adhoc_compile_emits_every_declared_metric() {
    emits_every_declared_metric(Workload::AdhocCompile);
}

#[test]
fn scan_ship_emits_every_declared_metric() {
    emits_every_declared_metric(Workload::ScanShip);
}

#[test]
fn wan_overlap_emits_every_declared_metric() {
    emits_every_declared_metric(Workload::WanOverlap);
}

#[test]
fn dml_2pc_emits_every_declared_metric() {
    emits_every_declared_metric(Workload::Dml2pc);
}

#[test]
fn inputs_and_link_counts_follow_the_seed() {
    fn class_counts(opts: &Options) -> BTreeMap<Class, usize> {
        let mut counts = BTreeMap::new();
        for stmt in opts.statements(1) {
            *counts.entry(stmt.class).or_insert(0) += 1;
        }
        counts
    }
    let text = |opts: &Options| -> Vec<String> {
        opts.statements(1)
            .iter()
            .map(|s| format!("{}{:?}", s.sql, s.params))
            .collect()
    };
    for workload in WORKLOADS {
        let (a, b, other) = (smoke(workload, 7), smoke(workload, 7), smoke(workload, 8));
        assert_eq!(
            text(&a),
            text(&b),
            "{}: same seed, same inputs",
            workload.name()
        );
        assert_ne!(
            text(&a),
            text(&other),
            "{}: another seed, other literals",
            workload.name()
        );
        assert_eq!(
            class_counts(&a),
            class_counts(&other),
            "{}: class counts",
            workload.name()
        );
        assert!(class_counts(&a)
            .keys()
            .all(|c| workload.classes().contains(c)));
    }
    // Same seed ⇒ identical link counters, down to the byte.
    let link_counts = |o: &Outcome| -> Vec<u64> {
        o.metrics
            .iter()
            .filter(|m| m.name.starts_with("link_"))
            .map(|m| m.value.to_bits())
            .collect()
    };
    for workload in [Workload::PointHit, Workload::ScanShip, Workload::Dml2pc] {
        let (first, second) = (
            end_to_end(&smoke(workload, 7)),
            end_to_end(&smoke(workload, 7)),
        );
        assert_clean(&first, workload.name());
        assert_eq!(
            link_counts(&first),
            link_counts(&second),
            "{}",
            workload.name()
        );
        assert_eq!(link_counts(&first).len(), 2);
    }
    assert_eq!(CLASSES.len(), 15);
}

#[test]
fn a_wrong_expected_checksum_is_reported_as_a_failure() {
    let opts = smoke(Workload::PointHit, 3);
    let mut stmts = opts.statements(1);
    let mut failures = Failures::default();
    let mut prepared = setup(&opts, &Unwrapped, 1, &mut stmts, &mut failures);
    assert_eq!(failures.count, 0, "{:?}", failures.notes);
    run_pass(&prepared.fed, &stmts, &mut prepared.model, &mut failures);
    assert_eq!(failures.count, 0, "{:?}", failures.notes);

    stmts[0].expect.checksum ^= 1;
    run_pass(&prepared.fed, &stmts, &mut prepared.model, &mut failures);
    assert_eq!(failures.count, 1);
    assert!(
        failures.notes[0].starts_with("wrong answer"),
        "{:?}",
        failures.notes
    );
}

/// The sensitivity flags move what the README says they move: the sleeping
/// links and the exchange are on `wan_overlap`'s critical path.
#[test]
fn wan_overlap_sees_link_latency_and_lost_overlap() {
    // (median latency in µs, round trips) of a few smoke passes.
    fn p50_and_trips(opts: &Options) -> (f64, u64) {
        let mut stmts = opts.statements(1);
        let mut failures = Failures::default();
        let mut prepared = setup(opts, &Unwrapped, 1, &mut stmts, &mut failures);
        let m = measure(&prepared.fed, &stmts, 5, &mut prepared.model, &mut failures);
        assert_eq!(failures.count, 0, "{:?}", failures.notes);
        (percentile(&m.latencies_us(), 50.0), m.link_total.requests)
    }
    let default = smoke(Workload::WanOverlap, 5);
    let (p50, trips) = p50_and_trips(&default);
    let (halved, halved_trips) = p50_and_trips(&Options {
        link_latency_us: Some(crate::run::WAN_LATENCY_US / 2),
        ..default.clone()
    });
    let (serial, serial_trips) = p50_and_trips(&Options {
        serial: true,
        ..default
    });
    assert!(halved <= 0.75 * p50, "1 ms links: {halved} vs {p50}");
    assert!(serial >= 1.3 * p50, "serial members: {serial} vs {p50}");
    assert_eq!((halved_trips, serial_trips), (trips, trips));
}

/// A template pool that fits the plan cache stops `adhoc_compile` from
/// measuring compilation, and the hit-ratio guard says so.
#[test]
fn a_pool_that_fits_the_plan_cache_trips_the_guard() {
    let outcome = end_to_end(&Options {
        pool: Some(64),
        ..smoke(Workload::AdhocCompile, 5)
    });
    assert!(
        outcome
            .failures
            .notes
            .iter()
            .any(|n| n.contains("plan-cache hit ratio must be 0.0")),
        "{:?}",
        outcome.failures.notes
    );
}

#[test]
fn the_adhoc_pool_outgrows_the_plan_cache() {
    assert!(crate::workload::adhoc_pool_size() >= 1024);
}
