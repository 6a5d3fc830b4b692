//! `offline-resnet-mc`: one caller in a closed loop, `predict` on
//! ResNet18-w8 (config KMBM, untrained weights), S=3, sample-major, 32
//! seeded CIFAR-like images per call.

use crate::machine::{cleanest, Disturbance, PartMeter};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::walk::{walk, WalkPlan};
use crate::{Args, Outcome};
use nds_data::{generate, DatasetConfig, DatasetKind};
use nds_engine::{EngineBuilder, Execution, PredictRequest, UncertaintyEngine};
use nds_metrics::{accuracy, ece, EceConfig};
use nds_nn::zoo;
use nds_supernet::{Supernet, SupernetSpec};
use nds_tensor::Tensor;
use std::time::Instant;

const BATCH: usize = 32;
const BATCHES: usize = 32;
const SAMPLES: usize = 3;
const CONFIG: &str = "KMBM";
/// Fixed weight seed: the weights are part of the program under test,
/// the images are the workload's inputs.
const WEIGHT_SEED: u64 = 0x0FF1;
/// Latency limit on one call, for goodput.
const LIMIT_MS: f64 = 400.0;
const SETUPS: usize = 5;
const EVAL_IMAGES: usize = 256;
/// The run is split into this many windows of equal time; the metrics
/// use the calls of the half the host disturbed least.
const WINDOWS: usize = 10;

struct Setup {
    supernet: Supernet,
    engine: UncertaintyEngine,
    batches: Vec<Tensor>,
    generate_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let splits = generate(
        DatasetKind::CifarLike,
        &DatasetConfig {
            train: 32,
            val: 32,
            test: BATCH * BATCHES,
            seed,
            noise: 0.08,
        },
    );
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let batches = (0..BATCHES)
        .map(|b| {
            let indices: Vec<usize> = (b * BATCH..(b + 1) * BATCH).collect();
            splits.test.batch(&indices).0
        })
        .collect();
    let spec = SupernetSpec::paper_default(zoo::resnet18(8), WEIGHT_SEED).expect("resnet18 spec");
    let mut supernet = Supernet::build(&spec).expect("resnet18 supernet");
    supernet
        .set_config(&CONFIG.parse().expect("config code"))
        .expect("config in space");
    let mut engine = EngineBuilder::new(supernet.net().clone())
        .samples(SAMPLES)
        .execution(Execution::SampleMajor)
        .build();
    engine.prewarm();
    Setup {
        supernet,
        engine,
        batches,
        generate_ms,
    }
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(args: &Args, mut tracer: Tracer) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let s = setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(s.generate_ms);
        state = Some(s);
    }
    let Setup {
        supernet,
        mut engine,
        batches,
        ..
    } = state.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.set("data.generate_ms", median(&generate_ms));

    // Output check before any timing: sample-major equals round-major.
    let mut round_major = EngineBuilder::new(supernet.net().clone())
        .samples(SAMPLES)
        .execution(Execution::RoundMajor)
        .build();
    let first = &batches[0];
    let fused = engine
        .predict(&PredictRequest::new(first))
        .expect("predict");
    let reference = round_major
        .predict(&PredictRequest::new(first))
        .expect("predict");
    out.check(
        same_bits(&fused.probs, &reference.probs),
        "first batch: sample-major probabilities byte-equal to round-major",
    );
    drop(round_major);

    // Closed loop, in windows of equal time; each window records how
    // much the host disturbed it, with a probe before every call.
    let mut windows: Vec<(Disturbance, Vec<f64>)> = Vec::new();
    let mut current = Vec::new();
    let mut meter = PartMeter::start();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let budget = args.seconds;
    let window_s = budget / WINDOWS as f64;
    let start = Instant::now();
    let mut call = 0usize;
    while call < BATCHES || start.elapsed().as_secs_f64() < budget {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window_s * (windows.len() + 1) as f64 && !current.is_empty() {
            let finished = std::mem::replace(&mut meter, PartMeter::start());
            windows.push((finished.finish(), std::mem::take(&mut current)));
        }
        meter.probe();
        let images = &batches[call % BATCHES];
        // In a traced run the first half runs untraced, for the overhead.
        let traced = tracer.enabled() && elapsed >= budget / 2.0;
        let t = Instant::now();
        let span = if traced {
            tracer.begin("engine.predict", call as u64)
        } else {
            crate::trace::NO_SPAN
        };
        let result = engine.predict(&PredictRequest::new(images));
        tracer.end(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match result {
            Ok(response) => {
                engine.recycle(response);
                current.push(ms);
                if traced {
                    traced_ms.push(ms);
                } else {
                    untraced_ms.push(ms);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("predict failed: {e}"));
            }
        }
        call += 1;
    }
    windows.push((meter.finish(), current));

    // The calls of the half of the windows the host disturbed least,
    // ranked by their probe times.
    let disturbances: Vec<Disturbance> = windows.iter().map(|(d, _)| *d).collect();
    let used: Vec<f64> = cleanest(
        windows.into_iter().map(|(d, w)| (d.probe_us, w)).collect(),
        2,
    )
    .concat();
    // Rates at the median call time: one slow call moves a mean-based
    // rate, not these.
    let summary = Summary::of(&used);
    let good = used.iter().filter(|&&ms| ms <= LIMIT_MS).count();
    let goodput = good as f64 / used.len() as f64 * 1e3 / summary.p50;
    let images_per_s = BATCH as f64 * 1e3 / summary.p50;
    out.set("p50_ms", summary.p50);
    out.set("tail_ms", summary.tail);
    out.set("goodput_rps", goodput);
    out.set("images_per_s", images_per_s);
    out.set("engine.predict_ms.p50", summary.p50);
    out.note(format!(
        "offline-resnet-mc: {} calls of {BATCH} images, S={SAMPLES}, sample-major, config {CONFIG}",
        out.attempted
    ));
    out.note(format!(
        "  per window of {window_s:.2} s, host steal / probe us: {}",
        disturbances
            .iter()
            .map(|d| format!("{:.3}/{:.1}", d.steal, d.probe_us))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note(format!(
        "  the {} calls of the least disturbed half of the windows: {}; {goodput:.4} calls/s \
         within {LIMIT_MS} ms, {images_per_s:.2} images/s",
        used.len(),
        summary.describe("ms")
    ));

    // Answer quality on a fixed labelled set, the same for every seed.
    let eval = generate(
        DatasetKind::CifarLike,
        &DatasetConfig {
            train: 32,
            val: 32,
            test: EVAL_IMAGES,
            seed: WEIGHT_SEED ^ 0xE7A1,
            noise: 0.08,
        },
    );
    let (images, labels) = eval.test.full_batch();
    let answer = engine
        .predict(&PredictRequest::new(&images))
        .expect("evaluation predict");
    let acc = accuracy(&answer.probs, &labels).expect("accuracy");
    let cal = ece(&answer.probs, &labels, EceConfig::default()).expect("ece");
    out.set("winner_accuracy", acc);
    out.set("winner_ece", cal);
    out.note(format!(
        "  on a fixed {EVAL_IMAGES}-image set (untrained weights): accuracy {acc:.4}, ECE {cal:.4}"
    ));

    if tracer.enabled() {
        let overhead = median(&traced_ms) / median(&untraced_ms) - 1.0;
        out.set("trace.overhead_share", overhead);
        out.note(format!(
            "tracing overhead: traced p50 {:.4} ms vs untraced {:.4} ms ({:+.2}%)",
            median(&traced_ms),
            median(&untraced_ms),
            overhead * 100.0
        ));
        let arch = zoo::resnet18(8);
        let walk = tracer.span("nn.walk", 0, || {
            walk(
                supernet.net(),
                &arch,
                first,
                WalkPlan {
                    samples: SAMPLES,
                    sample_major: true,
                    reps: 9,
                },
            )
        });
        out.note(walk.report("resnet18-w8 KMBM, 32 images, sample-major"));
        crate::walk::set_layer_metrics(&mut out, &walk);
        out.set(
            "engine.overhead_share",
            1.0 - walk.layer_sum_ms / summary.p50,
        );
    }
    out.tracers.push(tracer);
    out
}
