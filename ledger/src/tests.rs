//! Tests of the command line, of `BENCHMARK.json` against the metric table,
//! of seeded generation, and a `--quick` smoke run of every workload.

use super::*;

fn args(text: &str) -> Vec<String> {
    text.split_whitespace().map(String::from).collect()
}

fn quick(seed: u64) -> Cfg {
    Cfg {
        seed,
        threads: 2,
        quick: true,
        traced: false,
    }
}

#[test]
fn parses_the_arguments_the_driver_passes() {
    let o = parse(&args(
        "--workload insert.storm --seed 7 --seconds 12 --trace 1",
    ))
    .unwrap();
    assert_eq!(o.workload.as_deref(), Some("insert.storm"));
    assert_eq!((o.seed, o.seconds, o.trace), (7, 12.0, true));
    let o = parse(&args("--quick")).unwrap();
    assert_eq!((o.workload, o.seed, o.trace), (None, DEFAULT_SEED, false));
    assert!(o.seconds < 1.0);
    assert_eq!(parse(&[]).unwrap().seconds, RUN_SECONDS as f64);
}

#[test]
fn rejects_what_it_does_not_know() {
    for bad in [
        "--workload nope",
        "--seed x",
        "--seconds 0",
        "--seconds 61",
        "--trace 2",
        "--trace",
        "--frobnicate",
        "--trace-out t.json",
        "--aa --trace 1",
    ] {
        assert!(parse(&args(bad)).is_err(), "{bad} must be rejected");
    }
}

/// `BENCHMARK.json` as the tables in `metrics.rs` would write it.
fn benchmark_json() -> Json {
    let metric = |def: &Def, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Json::str(def.name)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better)),
        ];
        fields.extend(bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("ledger")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(def, bound)| metric(def, Some(*bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|def| metric(def, None)).collect()),
        ),
    ])
}

/// Drop the white space between JSON tokens, keep it inside strings.
fn compact(text: &str) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if !c.is_whitespace() {
            out.push(c);
            in_string = c == '"';
        }
    }
    out
}

#[test]
fn benchmark_json_copies_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expected = benchmark_json().render();
    assert_eq!(
        compact(&on_disk),
        compact(&expected),
        "expected:\n{expected}"
    );
}

#[test]
fn the_metric_table_meets_the_benchmark_contract() {
    let name_ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let defs: Vec<&Def> = END_TO_END
        .iter()
        .map(|(def, _)| def)
        .chain(&PER_LAYER)
        .collect();
    let mut names: Vec<&str> = defs
        .iter()
        .map(|d| d.name)
        .chain(WORKLOADS.iter().map(|(n, _)| *n))
        .collect();
    assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        defs.len() + WORKLOADS.len(),
        "a name is used twice"
    );
    for def in defs {
        assert!(unit_ok(def.unit), "{}", def.unit);
        assert!(["lower", "higher"].contains(&def.better));
    }
    assert!(END_TO_END
        .iter()
        .all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
    let (setup, setup_bound) = END_TO_END
        .iter()
        .find(|(d, _)| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|(_, bound)| bound <= setup_bound),
        "set-up has the largest bound"
    );
    assert!(WORKLOADS
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    assert!((1..=60).contains(&RUN_SECONDS));
}

#[test]
fn the_seed_fixes_every_generated_input() {
    for (name, _) in WORKLOADS {
        let digest = |seed| setup(name, &quick(seed)).reference();
        assert_eq!(digest(11), digest(11), "{name}: same seed, same inputs");
        assert_ne!(digest(11), digest(12), "{name}: another seed, other inputs");
    }
}

fn assert_reports(run: &Run, names: &[&str]) {
    assert_eq!(run.failed, 0, "{}: no operation fails", run.workload);
    assert!(run.attempted >= 1);
    let line = run.result_line().render();
    for name in names {
        let (_, summary) = run
            .metrics
            .iter()
            .find(|(def, _)| def.name == *name)
            .unwrap_or_else(|| panic!("{}: {name} is missing", run.workload));
        assert!(
            summary.median.is_finite(),
            "{}: {name} = {}",
            run.workload,
            summary.median
        );
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{line}"
        );
    }
    assert_eq!(run.metrics.len(), names.len());
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn quick_timed_run_of_every_workload_reports_every_end_to_end_metric() {
    let names: Vec<&str> = END_TO_END.iter().map(|(def, _)| def.name).collect();
    for (workload, _) in WORKLOADS {
        let run = timed_run(workload, &quick(3), 0.05).expect("references are stable");
        assert_reports(&run, &names);
        assert!(
            run.metrics.iter().all(|(_, s)| s.median > 0.0),
            "end-to-end metrics are never 0"
        );
    }
}

#[test]
fn quick_traced_run_reports_every_per_layer_metric_and_a_loadable_trace() {
    let names: Vec<&str> = PER_LAYER.iter().map(|def| def.name).collect();
    let out = std::env::temp_dir().join(format!("ledger-trace-{}.json", std::process::id()));
    let run = traced_run("insert.storm", &quick(3), out.to_str()).expect("traced run");
    assert_reports(&run, &names);
    let trace = std::fs::read_to_string(&out).expect("the trace was written");
    std::fs::remove_file(&out).expect("remove the trace");
    assert!(trace.starts_with("{\"traceEvents\": [{\"name\": \"insert.storm\""));
    for span in ["round", "spawn_loop", "replay", "taskwait"] {
        assert!(
            trace.contains(&format!("\"name\": \"{span}\"")),
            "{span} is in the trace"
        );
    }
    let get = |name: &str| {
        run.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .unwrap()
            .1
            .median
    };
    // One thread's spans nest, so their self times add up to the root.
    assert!((get("trace.span_coverage") - 1.0).abs() < 1e-9);
    // Counts repeat exactly: half the storm's tasks are stamped by replay,
    // but for the batch the capture spawned.
    assert!((0.45..0.5).contains(&get("capture.replay_task_share")));
    assert_eq!(get("capture.tasks_per_replay_pass"), 256.0);
}

#[test]
fn aa_flags_a_difference_beyond_the_bound() {
    let run = |fresh_ms: f64| Run {
        workload: "w".into(),
        traced: false,
        attempted: 1,
        failed: 0,
        metrics: END_TO_END
            .iter()
            .map(|(def, _)| {
                (
                    *def,
                    Summary::point(if def.name == "fresh_time_ms" {
                        fresh_ms
                    } else {
                        1.0
                    }),
                )
            })
            .collect(),
        details: Vec::new(),
    };
    assert!(aa_within_bounds(&run(100.0), &run(110.0)));
    assert!(aa_within_bounds(&run(100.0), &run(90.0)));
    assert!(!aa_within_bounds(&run(100.0), &run(130.0)));
    assert!(!aa_within_bounds(&run(100.0), &run(70.0)));
}
