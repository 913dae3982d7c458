//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <recommend-k64|score-swap|train-odnet> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process builds the workload's fixture from the seed, drives the
//! program through its public API (the HTTP server runs in-process), checks
//! every output against an oracle, and prints one metric per line on
//! stderr. The last line of stdout is the result object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A wrong
//! output fails the run (exit 1) instead of producing numbers. The full
//! result, with provenance, goes to `.bench_out/`; a traced run also
//! writes its spans there in Chrome trace format. See `perfbench/NOTES.md`.

/// A JSON object from `"key": value` pairs (the vendored `serde_json` has
/// no `json!`); values are anything `serde::Serialize`.
macro_rules! jobj {
    ($($k:literal: $v:expr),* $(,)?) => {
        serde_json::Value::Map(vec![$(($k.to_string(), serde::Serialize::to_content(&$v))),*])
    };
}

mod client;
mod probes;
mod recommend;
mod replay;
mod score_swap;
mod serving;
mod train;
mod util;

use util::{Fail, Outcome};

/// End-to-end metrics, as declared in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("ok_rate", "ratio"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, as declared in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("http.parse_us", "us"),
    ("http.decode_us", "us"),
    ("http.encode_us", "us"),
    ("http.request_bytes", "B"),
    ("http.response_bytes", "B"),
    ("http.residual_us", "us"),
    ("engine.submit_wait_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.queue_wait_p50_us", "us"),
    ("engine.queue_wait_p90_us", "us"),
    ("engine.requests_per_forward", "ratio"),
    ("engine.rejected", "count"),
    ("swap.publish_us", "us"),
    ("swap.publishes", "count"),
    ("swap.responses_per_generation", "count"),
    ("retrieval.top_k_us", "us"),
    ("retrieval.route_us", "us"),
    ("retrieval.scan_us", "us"),
    ("retrieval.select_us", "us"),
    ("retrieval.scanned", "count"),
    ("retrieval.recall_at_k", "ratio"),
    ("rank.forward_us", "us"),
    ("rank.trunk_us", "us"),
    ("rank.per_candidate_us", "us"),
    ("kernel.expert_gmacs", "GMAC/s"),
    ("kernel.gate_gmacs", "GMAC/s"),
    ("kernel.tower_gmacs", "GMAC/s"),
    ("kernel.expert_macs_computed", "count"),
    ("kernel.gate_macs_computed", "count"),
    ("kernel.tower_macs_computed", "count"),
    ("kernel.expert_bytes_computed", "B"),
    ("kernel.gate_bytes_computed", "B"),
    ("kernel.tower_bytes_computed", "B"),
    ("artifact.freeze_s", "s"),
    ("artifact.save_s", "s"),
    ("artifact.load_ms", "ms"),
    ("artifact.cold_start_ms", "ms"),
    ("artifact.bytes", "B"),
    ("data.generate_s", "s"),
    ("data.featurize_ms", "ms"),
    ("hsg.build_ms", "ms"),
    ("train.epoch_s", "s"),
    ("train.forward_us", "us"),
    ("train.backward_us", "us"),
    ("train.hsgc_share", "ratio"),
    ("train.auc_o", "ratio"),
    ("train.auc_d", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("bench.featurize_us", "us"),
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p90_us", "us"),
];

const WORKLOADS: &[&str] = &["recommend-k64", "score-swap", "train-odnet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(16.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The commit the checkout came from, when it is a git checkout.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        sha.to_string()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(a: &Args) -> serde_json::Value {
    let n = serving::nproc();
    let scale = match a.workload.as_str() {
        "recommend-k64" => jobj! {
            "users": recommend::USERS, "cities": recommend::CITIES,
            "embed_dim": recommend::EMBED_DIM, "k": recommend::K,
            "artifact": "ODNET-G .odz, mmap", "user_draw": "uniform hash over all users",
            "open_loop_rate_per_s": recommend::RATE,
        },
        "score-swap" => jobj! {
            "users": score_swap::USERS, "cities": score_swap::CITIES,
            "generations": 2, "publish_every_ms": score_swap::PUBLISH_EVERY.as_millis() as u64,
            "open_loop_rate_per_s": score_swap::RATE,
        },
        _ => jobj! {
            "users": train::USERS, "cities": train::CITIES, "epochs": train::EPOCHS,
            "variant": "ODNET (HSGC K=2, cap 5, d=16, 4 heads)", "train_workers": n,
        },
    };
    jobj! {
        "git_sha": git_sha(),
        "nproc": n,
        "cpu_model": cpu_model(),
        "simd_level": od_tensor::SimdLevel::detect().name(),
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "scale": scale,
        "server": jobj!{
            "shards": 1, "engine_workers": n, "conn_workers": n, "client_connections": n,
        },
    }
}

fn run(a: &Args) -> Result<Outcome, Fail> {
    match a.workload.as_str() {
        "recommend-k64" => recommend::run(a.seed, a.seconds, a.trace),
        "score-swap" => score_swap::run(a.seed, a.seconds, a.trace),
        _ => train::run(a.seed, a.seconds, a.trace),
    }
}

fn write_out(name: &str, text: &str) {
    let dir = std::path::Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), text))
    {
        eprintln!("warning: could not write .bench_out/{name}: {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let prov = provenance(&args);
    eprintln!(
        "perfbench: {}",
        serde_json::to_string(&prov).unwrap_or_default()
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(Fail::Incorrect(msg)) => {
            eprintln!("perfbench: INCORRECT OUTPUT: {msg}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
        Err(Fail::Error(msg)) => {
            eprintln!("perfbench: error: {msg}");
            std::process::exit(2);
        }
    };
    let mut sheet = outcome.sheet;
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    // A layer this workload does not run is reported as zero work, and
    // listed as such in the result file.
    let mut not_exercised = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            if sheet.get(name).is_none() {
                sheet.put(name, 0.0, unit);
                not_exercised.push(*name);
            }
        }
    }
    for (name, value, unit) in sheet.rows() {
        eprintln!("{name:<34} {value:>16.4} {unit}");
    }
    let metrics = match sheet.json_object(declared) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            std::process::exit(2);
        }
    };
    let all = serde_json::Value::Map(
        sheet
            .rows()
            .iter()
            .map(|(n, v, u)| (n.clone(), jobj! {"value": v, "unit": u}))
            .collect(),
    );
    let result = jobj! {
        "provenance": prov,
        "correct": true,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": all,
        "not_exercised": not_exercised,
        "detail": outcome.detail,
    };
    write_out(
        &format!("{stem}.json"),
        &serde_json::to_string_pretty(&result).unwrap_or_default(),
    );
    if let Some(spans) = outcome.spans {
        write_out(&format!("{stem}.spans.json"), &spans);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
}
