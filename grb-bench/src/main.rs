//! `grb-bench`: the repo's layered benchmark. Six seeded workloads, the
//! end-to-end metrics a user of the system pays for, and per-layer metrics
//! that say where a change in them came from. See `README.md` beside this
//! package for the catalogue.
//!
//! ```text
//! grb-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! grb-bench all [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]
//! grb-bench compare <A/result.json> <B/result.json> [--spec BENCHMARK.json] [--noise noise.json] [--layers]
//! grb-bench noise <result.json>... --out <noise.json>
//! ```

mod compare;
mod inputs;
mod json;
mod machine;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use probes::Metric;
use stats::{percentile, supported_tail, windowed_p90, windowed_rate, WINDOWS};
use workloads::{Cfg, Phase, WORKLOADS};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// `--flag value` pairs, bare `--switch`es and positionals.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    const SWITCHES: &'static [&'static str] = &["quick", "layers"];

    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(key) if Self::SWITCHES.contains(&key) => {
                    args.flags.insert(key.to_string(), "1".to_string());
                }
                Some(key) => {
                    let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                    args.flags.insert(key.to_string(), value);
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("malformed --{key} {v:?}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.flags.get(key).map(PathBuf::from)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None if args.has("workload") => run_one(&args),
        Some("all") => run_all(&args),
        Some("compare") => compare::main(&args.positional[1..], &args),
        Some("noise") => compare::noise(&args.positional[1..], &args),
        _ => return usage("expected --workload <name>, all, compare or noise"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("grb-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("grb-bench: {problem}");
    eprintln!(
        "usage:\n  grb-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]\n  \
         grb-bench all [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]\n  \
         grb-bench compare <A/result.json> <B/result.json> [--spec <BENCHMARK.json>] [--noise <noise.json>] [--layers]\n  \
         grb-bench noise <result.json>... --out <noise.json>\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

/// The engine reads its knobs from `GRB_*` variables once, at first use. Pin
/// the one the harness depends on and clear the rest, before any engine code
/// runs and while this is still the only thread. Every workload process does
/// this for itself, so it holds whether `all` or the acceptance driver
/// started it.
fn pin_environment(workload: &str) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GRB_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("GRB_THREADS", machine::harness_threads().to_string());
    if workload == "ingest_query" {
        std::env::set_var(
            "GRB_FLUSH_WINDOW_MS",
            workloads::ingest_query::FLUSH_WINDOW_MS,
        );
    }
}

/// Per-layer numbers read off a traced pass: the tracing overhead and where
/// the traced operations' self time sits, by layer.
fn trace_metrics(untraced: &Phase, traced: &Phase) -> Vec<Metric> {
    let p50 = |p: &Phase| percentile(&p.solve_ms(), 50.0);
    let by_layer = trace::layer_self_ns(&traced.spans);
    let total: u64 = by_layer.values().sum();
    let share = |prefix: &str| {
        let ns: u64 = by_layer
            .iter()
            .filter(|(layer, _)| layer.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / total.max(1) as f64
    };
    vec![
        ("harness.trace_overhead_x", p50(traced) / p50(untraced), "x"),
        ("harness.trace_spans", traced.spans.len() as f64, "count"),
        ("trace.harness_self_share", share("harness"), "ratio"),
        ("trace.algorithms_self_share", share("algorithms"), "ratio"),
        ("trace.core_self_share", share("core"), "ratio"),
        ("trace.capi_self_share", share("capi"), "ratio"),
        ("trace.server_self_share", share("server"), "ratio"),
    ]
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj().with("value", *value).with("unit", *unit),
                )
            })
            .collect(),
    )
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, one process: set up, run, check, report. The last line of
/// standard output is the result object the acceptance driver reads.
fn run_one(args: &Args) -> Result<bool, String> {
    let name: String = args.get("workload", String::new())?;
    if !WORKLOADS.contains(&name.as_str()) {
        return Err(format!("unknown workload {name:?}"));
    }
    let seed = args.get("seed", DEFAULT_SEED)?;
    let quick = args.has("quick");
    let seconds = args.get("seconds", DEFAULT_SECONDS)?;
    let traced = args.get("trace", 0u8)? != 0;
    let out_dir = args.path("out");
    pin_environment(&name);
    let cfg = Cfg {
        seed,
        quick,
        threads: machine::harness_threads(),
    };
    let record = machine::record();
    println!(
        "# grb-bench workload={name} seed={seed} seconds={seconds} trace={} quick={quick}",
        u8::from(traced)
    );
    println!("# machine {}", record.compact());

    // set-up, several times when it is itself being measured
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        drop(workload.take());
        let t0 = Instant::now();
        workload = workloads::setup(&name, &cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("workload name was validated");

    let graphs = workload.graphs();
    let mut failed = 0u64;
    for fp in &graphs {
        if let Err(e) = inputs::check_fingerprint(seed, quick, fp) {
            eprintln!("grb-bench: {e}");
            failed += 1;
        }
    }
    workload.prepare_checks();

    // a traced run splits its time: half untraced, half traced, so the
    // tracing overhead is read within one process
    let first = workload.run(if traced { seconds / 2.0 } else { seconds }, false);
    let second = traced.then(|| workload.run(seconds / 2.0, true));
    let (checked, wrong) = workload.final_checks();
    // torn down before the layer probes, which start their own facade
    // session and their own server
    drop(workload);

    let (mut phase, mut metrics, chrome) = match second {
        Some(mut second) => {
            let mut metrics = trace_metrics(&first, &second);
            metrics.extend(probes::run(&cfg));
            let pid = WORKLOADS.iter().position(|w| *w == name).unwrap_or(0) as u64;
            let chrome = trace::chrome_events(&second.spans, pid);
            second.attempted += first.attempted;
            second.failed += first.failed;
            (second, metrics, Some(chrome))
        }
        None => {
            let metrics = vec![
                ("setup_s", stats::median(&setup_s), "s"),
                ("solve_ms_p50", percentile(&first.solve_ms(), 50.0), "ms"),
                (
                    "solve_ms_p90",
                    windowed_p90(&first.samples, first.span_s, WINDOWS),
                    "ms",
                ),
                (
                    "work_per_s",
                    windowed_rate(&first.work, first.span_s, WINDOWS),
                    "1/s",
                ),
                ("peak_rss_mb", first.peak_rss_mb, "MiB"),
            ];
            (first, metrics, None)
        }
    };
    phase.attempted += checked;
    phase.failed += wrong;
    failed += phase.failed;
    let attempted = phase.attempted.max(1);
    let correct = failed == 0;
    // a ratio over a zero-length measurement: report it as 0, never as null
    for m in &mut metrics {
        if !m.1.is_finite() {
            m.1 = 0.0;
        }
    }

    for (metric, value, unit) in &metrics {
        println!("{metric} {name} {value} {unit}");
    }
    for (metric, value, unit) in &phase.extra {
        println!("{name}.{metric} {name} {value} {unit}");
    }
    let fail_ratio = failed as f64 / attempted as f64;
    println!("fail_ratio {name} {fail_ratio} ratio");

    if let Some(dir) = &out_dir {
        let s = phase.solve_ms();
        let tail = supported_tail(s.len());
        let part = Json::obj()
            .with("workload", name.as_str())
            .with("trace", traced)
            .with("seed", seed)
            .with("seconds", seconds)
            .with("quick", quick)
            .with("machine", record)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("fail_ratio", fail_ratio)
            .with("samples", s.len())
            .with(
                "solve_ms_tail",
                Json::obj()
                    .with("percentile", tail)
                    .with("value", percentile(&s, tail)),
            )
            .with(
                "graphs",
                graphs.iter().map(|g| g.to_json()).collect::<Vec<_>>(),
            )
            .with("metrics", metrics_json(&metrics))
            .with("extra", metrics_json(&phase.extra));
        write_file(
            &dir.join(format!("part-{name}-{}.json", u8::from(traced))),
            &part.pretty(),
        )?;
        if let Some(events) = chrome {
            write_file(
                &dir.join(format!("trace-{name}.json")),
                &Json::Arr(events).compact(),
            )?;
        }
    }

    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics_json(&metrics))
            .compact()
    );
    Ok(correct)
}

/// Every workload, each in its own child process (so `peak_rss_mb` and
/// `setup_s` are per workload and no process-wide knob leaks between them):
/// an untraced run for the end-to-end metrics, then a traced run for the
/// per-layer ones. Writes `<out>/result.json` and `<out>/trace.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.get("seed", DEFAULT_SEED)?;
    let quick = args.has("quick");
    let seconds = args.get("seconds", if quick { 0.5 } else { DEFAULT_SECONDS })?;
    let out = args.path("out").unwrap_or_else(|| "grb-bench-out".into());
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_ok = true;
    let mut by_workload = Vec::new();
    let mut events = Vec::new();
    for (pid, name) in WORKLOADS.iter().enumerate() {
        let mut entry = Json::obj();
        for traced in [false, true] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_ok &= status.success();
            let part_path = out.join(format!("part-{name}-{}.json", u8::from(traced)));
            let Ok(part) = read_json(&part_path) else {
                eprintln!("grb-bench: {name} (trace={traced}) left no record");
                all_ok = false;
                continue;
            };
            let _ = std::fs::remove_file(&part_path);
            let get = |key: &str| part.get(key).cloned().unwrap_or(Json::Null);
            if traced {
                entry = entry.with("per_layer", get("metrics")).with(
                    "traced_run",
                    Json::obj()
                        .with("attempted", get("attempted"))
                        .with("failed", get("failed")),
                );
                let trace_path = out.join(format!("trace-{name}.json"));
                if let Ok(Json::Arr(spans)) = read_json(&trace_path) {
                    events.push(
                        Json::obj()
                            .with("name", "process_name")
                            .with("ph", "M")
                            .with("pid", pid)
                            .with("args", Json::obj().with("name", *name)),
                    );
                    events.extend(spans);
                }
                let _ = std::fs::remove_file(&trace_path);
            } else {
                entry = entry
                    .with("attempted", get("attempted"))
                    .with("failed", get("failed"))
                    .with("fail_ratio", get("fail_ratio"))
                    .with("samples", get("samples"))
                    .with("solve_ms_tail", get("solve_ms_tail"))
                    .with("graphs", get("graphs"))
                    .with("end_to_end", get("metrics"))
                    .with("extra", get("extra"));
            }
        }
        by_workload.push((name.to_string(), entry));
    }

    let result = Json::obj()
        .with("schema", 1u64)
        .with("machine", machine::record())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("quick", quick)
        .with("workloads", Json::Obj(by_workload));
    write_file(&out.join("result.json"), &result.pretty())?;
    write_file(
        &out.join("trace.json"),
        &Json::obj().with("traceEvents", events).compact(),
    )?;
    println!(
        "# wrote {} and trace.json",
        out.join("result.json").display()
    );
    Ok(all_ok)
}
