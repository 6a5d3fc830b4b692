//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-lenet-open|offline-resnet-mc|pipeline-lenet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the metrics are the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a separate traced run, whose spans are also
//! written to `.bench_out/`. Every metric is printed on every workload;
//! see `perfbench/README.md` for what each one measures per workload.
//! A failed output check exits with status 1.

mod machine;
mod offline;
mod pipeline;
mod serve;
mod stats;
mod trace;
mod walk;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("images_per_s", "1/s"),
    ("winner_accuracy", "ratio"),
    ("winner_ece", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.tail", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.submit_us.p50", "us"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_lag_ms.p50", "ms"),
    ("serve.gen_lag_ms.max", "ms"),
    ("engine.predict_ms.p50", "ms"),
    ("engine.elapsed_ms.p50", "ms"),
    ("engine.overhead_share", "ratio"),
    ("adaptive.escalation_rate", "ratio"),
    ("adaptive.ood_escalation_rate", "ratio"),
    ("nn.conv_ms", "ms"),
    ("nn.pool_ms", "ms"),
    ("nn.linear_ms", "ms"),
    ("nn.norm_ms", "ms"),
    ("nn.act_ms", "ms"),
    ("nn.residual_ms", "ms"),
    ("nn.other_ms", "ms"),
    ("nn.layer_sum_ratio", "ratio"),
    ("dropout.slot_ms", "ms"),
    ("dropout.prefix_share", "ratio"),
    ("dropout.sample_major_cap", "ratio"),
    ("tensor.conv_gmacs_per_s", "GMAC/s"),
    ("tensor.pool_respawns", "count"),
    ("supernet.train_s", "s"),
    ("supernet.train_images_per_s", "1/s"),
    ("campaign.epoch_s.p50", "s"),
    ("campaign.merge_ms", "ms"),
    ("search.fresh_evals", "count"),
    ("search.memo_hit_ratio", "ratio"),
    ("search.candidates_per_s", "1/s"),
    ("search.evaluate_ms", "ms"),
    ("search.latency_model_us", "us"),
    ("hw.analyze_ms", "ms"),
    ("hls.generate_ms", "ms"),
    ("data.generate_ms", "ms"),
    ("pipeline.pipeline_s", "s"),
    ("failed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines printed before the JSON line.
    pub report: String,
    pub tracers: Vec<trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl AsRef<str>) {
        self.report.push_str(line.as_ref());
        if !line.as_ref().ends_with('\n') {
            self.report.push('\n');
        }
    }

    /// Records a failed output check: the run still reports, then exits 1.
    pub fn check(&mut self, ok: bool, what: impl AsRef<str>) {
        let verdict = if ok { "ok" } else { "FAILED" };
        self.note(format!("check {verdict}: {}", what.as_ref()));
        if !ok {
            self.correct = false;
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Shortest representation that round-trips: every digit measured.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    // One pool size for every run: the machine's core count, fixed
    // before the worker pool first reads it.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    std::env::set_var("NDS_THREADS", cores.to_string());
    let fingerprint = machine::fingerprint();

    let steal = machine::StealMeter::start();
    let epoch = Instant::now();
    let tracer = trace::Tracer::new(args.trace, epoch, "main");
    let mut outcome = match args.workload.as_str() {
        "serve-lenet-open" => serve::run(&args, tracer),
        "offline-resnet-mc" => offline::run(&args, tracer),
        "pipeline-lenet" => pipeline::run(&args, tracer),
        other => {
            eprintln!("unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    outcome.set("peak_rss_mb", machine::peak_rss_mb());
    outcome.set(
        "tensor.pool_respawns",
        nds_tensor::parallel::pool_respawn_count() as f64,
    );
    outcome.set(
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );

    if args.trace {
        let totals = trace::totals(&outcome.tracers);
        let spans: usize = outcome.tracers.iter().map(|t| t.spans().len()).sum();
        outcome.set("trace.spans", spans as f64);
        let mut lines = String::from("span self times (name: count, total ms, self ms):\n");
        for (name, t) in &totals {
            let _ = writeln!(
                lines,
                "  {name:<28} {:>8} {:>12.3} {:>12.3}",
                t.count, t.total_ms, t.self_ms
            );
        }
        outcome.note(lines);
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, trace::to_json(&outcome.tracers)))
        {
            Ok(()) => outcome.note(format!("spans written to {}", path.display())),
            Err(e) => outcome.note(format!("could not write spans: {e}")),
        }
    }

    print!("{}", outcome.report);
    println!("fingerprint: {fingerprint}");
    // Time the hypervisor gave this machine's virtual CPUs to others: a
    // high share flags a run measured on a contended host.
    println!("host steal share during the run: {:.4}", steal.share());
    println!(
        "workload {} seed {} seconds {} trace {}: attempted {}, failed {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("an output check failed; see the report above");
        ExitCode::from(1)
    }
}
