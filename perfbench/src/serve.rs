//! `serve-lenet-open`: an open loop of seeded Poisson arrivals into one
//! `nds-serve` `Server` over a briefly SPOS-trained LeNet supernet
//! (config BMM) with two tenants, `plain` (S=3) and `gated` (S=8,
//! entropy gate, pilot 1). Blocks at a fixed nominal rate alternate
//! with the steps of a fixed rate ladder in 5% steps; every step always
//! runs.

use crate::machine::{cleanest, StealMeter};
use crate::stats::{mean, median, percentile, Summary};
use crate::trace::{Tracer, NO_SPAN};
use crate::walk::{walk, WalkPlan};
use crate::{Args, Outcome};
use nds_adaptive::{AdaptivePolicy, EscalationPolicy};
use nds_data::{generate, DatasetConfig, DatasetKind};
use nds_engine::{EngineBuilder, PredictRequest, PredictResponse, UncertaintyFlags};
use nds_metrics::{accuracy, ece, EceConfig};
use nds_nn::layers::Sequential;
use nds_nn::train::TrainConfig;
use nds_nn::zoo;
use nds_serve::{ServeError, ServeRequest, Server, ServerBuilder, TenantId, TenantSpec};
use nds_supernet::{Supernet, SupernetSpec};
use nds_tensor::rng::Rng64;
use nds_tensor::Tensor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Nominal offered load: between a third and a sixth of the saturation
/// rate measured for this mix on a 2-core Xeon host, which ranged from
/// about 2800 req/s with the host contended to about 4800 req/s with it
/// quiet. At half of saturation (1400 req/s) requests queued behind one
/// another, and host speed swings of up to 50% in service time moved the
/// nominal p50 by 30% and its tail by 70% between runs; at this rate the
/// p50 is mostly the coalescing window plus one service.
const NOMINAL_RPS: f64 = 800.0;
/// The ladder: LADDER_STEPS rates from LADDER_START up in 5% steps, to
/// about 1.5 times the quiet saturation rate, so that a faster server
/// still meets its saturation point on the ladder.
const LADDER_START_RPS: f64 = 2100.0;
const LADDER_FACTOR: f64 = 1.05;
const LADDER_STEPS: usize = 26;
/// images_per_s is the median rate served over the last OVERLOAD_STEPS
/// steps, which offer more than the server can take.
const OVERLOAD_STEPS: usize = 4;
/// Share of the run spent at the nominal rate; the ladder gets the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Latencies of a nominal block count from this long after its start:
/// an overloaded step before it leaves up to LIMIT_MS of queued work,
/// which drains at about the nominal rate.
const SETTLE_S: f64 = 0.3;
/// Latency limit, from each request's due time to its ready answer; also
/// the server's admission SLO. Under tighter limits the admission
/// controller, whose projected wait jumps with single large requests,
/// rejected enough at about 80% load to flip the 99% rule between runs.
const LIMIT_MS: f64 = 100.0;
/// Share of requests sent that must meet the limit for a step to count.
const MET_SHARE: f64 = 0.99;
/// A phase whose generator ran later than this at p99 is invalid: it no
/// longer offered the scheduled load.
const LAG_BOUND_MS: f64 = 5.0;
/// A phase during which the hypervisor took more than this share of the
/// virtual CPUs' time (host steal) is invalid: it measured the host.
const STEAL_BOUND: f64 = 0.03;
const MAX_BATCH: usize = 8;
const WINDOW_MS: f64 = 0.5;
const GATE_THRESHOLD: f64 = 1.6;
const PLAIN: TenantSpec = TenantSpec {
    seed: 1000,
    samples: 3,
    adaptive: AdaptivePolicy::disabled(),
};
const GATED_SAMPLES: usize = 8;
const CONFIG: &str = "BMM";
const WEIGHT_SEED: u64 = 0x5E7E;
const TEMPLATES: usize = 2048;
const WARMUP_REQUESTS: usize = 400;
const SETUPS: usize = 5;
/// Every CHECK_EVERY-th answered request is re-served by a standalone
/// engine and compared byte for byte.
const CHECK_EVERY: usize = 97;

fn gated_spec() -> TenantSpec {
    TenantSpec {
        seed: 2000,
        samples: GATED_SAMPLES,
        adaptive: AdaptivePolicy::escalate(EscalationPolicy::entropy(GATE_THRESHOLD)),
    }
}

/// One request shape, reused across the schedule.
struct Template {
    tenant: usize,
    images: Tensor,
    /// Per row: the label, or `None` for an OOD noise row.
    labels: Vec<Option<usize>>,
    outputs: UncertaintyFlags,
}

struct Setup {
    net: Sequential,
    server: Server,
    tenants: [TenantId; 2],
    templates: Vec<Template>,
    generate_ms: f64,
    train_s: f64,
    train_images: usize,
}

fn setup(seed: u64) -> Setup {
    // The served model is the program under test, trained the same way
    // for every seed; only the request images come from the seed.
    let t = Instant::now();
    let training = generate(
        DatasetKind::MnistLike,
        &DatasetConfig {
            train: 1024,
            val: 32,
            test: 32,
            seed: WEIGHT_SEED,
            noise: 0.08,
        },
    );
    let requests = generate(
        DatasetKind::MnistLike,
        &DatasetConfig {
            train: 32,
            val: 32,
            test: 1024,
            seed,
            noise: 0.08,
        },
    );
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    let spec = SupernetSpec::paper_default(zoo::lenet(), WEIGHT_SEED).expect("lenet spec");
    let mut supernet = Supernet::build(&spec).expect("lenet supernet");
    let train = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let t = Instant::now();
    supernet
        .train_spos(&training.train, &train, &mut Rng64::new(WEIGHT_SEED))
        .expect("SPOS training");
    let train_s = t.elapsed().as_secs_f64();
    supernet
        .set_config(&CONFIG.parse().expect("config code"))
        .expect("config in space");
    let net = supernet.net().clone();

    let mut builder = ServerBuilder::new(net.clone())
        .max_batch(MAX_BATCH)
        .max_wait_ms(WINDOW_MS)
        .admission_slo_ms(LIMIT_MS);
    let tenants = [builder.tenant(PLAIN), builder.tenant(gated_spec())];
    let server = builder.build();

    // Request mix: mostly single images, about 10% OOD rows, about a
    // quarter asking for entropy and mutual information.
    let mut rng = Rng64::new(seed ^ 0x7E47);
    let ood = requests.train.ood_noise(512, &mut rng.fork(0x00D));
    let (test_images, test_labels) = requests.test.full_batch();
    let templates = (0..TEMPLATES)
        .map(|_| {
            let n = if rng.uniform() < 0.75 {
                1
            } else {
                2 + rng.below(7)
            };
            let mut rows = Vec::with_capacity(n);
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                if rng.uniform() < 0.1 {
                    rows.push(ood.batch_item(rng.below(512)).expect("ood row"));
                    labels.push(None);
                } else {
                    let i = rng.below(test_labels.len());
                    rows.push(test_images.batch_item(i).expect("test row"));
                    labels.push(Some(test_labels[i]));
                }
            }
            Template {
                tenant: rng.below(2),
                images: Tensor::stack_batch(&rows).expect("stack rows"),
                labels,
                outputs: if rng.uniform() < 0.25 {
                    UncertaintyFlags::ENTROPY | UncertaintyFlags::MUTUAL_INFORMATION
                } else {
                    UncertaintyFlags::NONE
                },
            }
        })
        .collect();
    Setup {
        net,
        server,
        tenants,
        templates,
        generate_ms,
        train_s,
        train_images: training.train.len(),
    }
}

/// One stretch of the schedule: a nominal block or a ladder step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Nominal(usize),
    Step(usize),
}

struct Job {
    due_s: f64,
    template: usize,
    phase: Phase,
    settled: bool,
    traced: bool,
}

fn ladder_rate(step: usize) -> f64 {
    LADDER_START_RPS * LADDER_FACTOR.powi(step as i32)
}

/// The arrival schedule: nominal blocks alternate with the ladder steps
/// (nominal, step 0, nominal, step 1, ...), so both sample the host over
/// the whole run rather than one stretch of it.
fn schedule(seed: u64, seconds: f64, traced_run: bool) -> Vec<Job> {
    let mut rng = Rng64::new(seed ^ 0xA771);
    let mut jobs = Vec::new();
    let block_s = seconds * NOMINAL_SHARE / LADDER_STEPS as f64;
    let step_s = seconds * (1.0 - NOMINAL_SHARE) / LADDER_STEPS as f64;
    let mut phases = Vec::new();
    for step in 0..LADDER_STEPS {
        let start = step as f64 * (block_s + step_s);
        phases.push((Phase::Nominal(step), start, start + block_s, NOMINAL_RPS));
        phases.push((
            Phase::Step(step),
            start + block_s,
            start + block_s + step_s,
            ladder_rate(step),
        ));
    }
    for (phase, start, end, rate) in phases {
        let mut t = start;
        loop {
            // Exponential inter-arrival times: a Poisson process.
            t += -(1.0 - rng.uniform()).ln() / rate;
            if t >= end {
                break;
            }
            jobs.push(Job {
                due_s: t,
                template: rng.below(TEMPLATES),
                phase,
                // A nominal block's latencies count once the queue a
                // preceding overloaded step left behind has drained.
                settled: matches!(phase, Phase::Step(_)) || t - start >= SETTLE_S,
                // A traced run leaves its first half untraced, to measure
                // the tracing overhead.
                traced: traced_run && t >= seconds / 2.0,
            });
        }
    }
    jobs
}

struct Sent {
    index: usize,
    due: Instant,
    lag_ms: f64,
    submit_us: f64,
    depth: usize,
    submitted: nds_serve::Result<nds_serve::Ticket>,
    submit_span: (Instant, Instant),
}

enum Answer {
    Ok {
        /// From the due time to the answer being ready.
        latency_ms: f64,
        /// From the due time to the collector receiving the answer.
        received_ms: f64,
        queue_wait_ms: f64,
        service_ms: f64,
        batch_size: usize,
        elapsed_ms: f64,
        row_samples: Option<Vec<usize>>,
        response: Option<Box<PredictResponse>>,
    },
    Rejected,
    Failed(String),
}

struct Record {
    lag_ms: f64,
    submit_us: f64,
    depth: usize,
    answer: Answer,
}

/// Host steal share of each phase, from `/proc/stat` read where the
/// schedule crosses from one phase into the next.
type StealMarks = Vec<(Phase, f64)>;

/// Drives the schedule from one submitter thread and collects answers on
/// one collector thread.
fn drive(
    server: &Server,
    tenants: [TenantId; 2],
    templates: &[Template],
    jobs: &[Job],
    tracer: &Tracer,
) -> (Vec<Record>, Vec<Tracer>, StealMarks) {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut submit_tracer = tracer.sibling("submitter");
    let mut collect_tracer = tracer.sibling("collector");
    let start = Instant::now() + Duration::from_millis(5);
    let (records, steal) = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let mut steal = Vec::new();
            let mut meter: Option<(Phase, StealMeter)> = None;
            for (index, job) in jobs.iter().enumerate() {
                if meter.map(|(phase, _)| phase) != Some(job.phase) {
                    if let Some((phase, m)) = meter {
                        steal.push((phase, m.share()));
                    }
                    meter = Some((job.phase, StealMeter::start()));
                }
                let due = start + Duration::from_secs_f64(job.due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let template = &templates[job.template];
                let request =
                    ServeRequest::new(template.images.clone()).with_outputs(template.outputs);
                let t0 = Instant::now();
                let span = if job.traced {
                    submit_tracer.begin("serve.submit", index as u64)
                } else {
                    NO_SPAN
                };
                let submitted = server.submit(tenants[template.tenant], request);
                submit_tracer.end(span);
                let t1 = Instant::now();
                let sent = Sent {
                    index,
                    due,
                    lag_ms: t0.saturating_duration_since(due).as_secs_f64() * 1e3,
                    submit_us: (t1 - t0).as_secs_f64() * 1e6,
                    depth: server.queue_depth(),
                    submitted,
                    submit_span: (t0, t1),
                };
                tx.send(sent).expect("collector is alive");
            }
            if let Some((phase, m)) = meter {
                steal.push((phase, m.share()));
            }
            drop(tx);
            steal
        });
        let collector = scope.spawn(|| {
            let mut records = Vec::with_capacity(jobs.len());
            for sent in rx {
                let traced = jobs[sent.index].traced;
                let answer = match sent.submitted {
                    Ok(ticket) => {
                        let wait_start = Instant::now();
                        let result = ticket.wait();
                        let done = Instant::now();
                        match result {
                            Ok(response) => {
                                let timing = &response.timing;
                                // The answer was ready when the server's own
                                // queue wait and service had passed since the
                                // submit returned. The collector receives
                                // tickets in order, so its receipt time would
                                // add this harness's head-of-line wait.
                                let (s0, s1) = sent.submit_span;
                                let served =
                                    s1 + Duration::from_secs_f64(timing.queue_wait_ms / 1e3);
                                let ready =
                                    served + Duration::from_secs_f64(timing.service_ms / 1e3);
                                if traced {
                                    // The request from its due time to the ready
                                    // answer: submit, queue wait and service;
                                    // its self time is generator lag. The
                                    // collector's wait is a span of its own.
                                    let id = sent.index as u64;
                                    let c = &mut collect_tracer;
                                    let root = c.record("serve.request", id, None, sent.due, ready);
                                    c.record("serve.submit", id, Some(root), s0, s1);
                                    c.record("serve.queue", id, Some(root), s1, served);
                                    c.record("engine.predict", id, Some(root), served, ready);
                                    c.record("serve.collect", id, None, wait_start, done);
                                }
                                Answer::Ok {
                                    latency_ms: ready
                                        .saturating_duration_since(sent.due)
                                        .as_secs_f64()
                                        * 1e3,
                                    received_ms: (done - sent.due).as_secs_f64() * 1e3,
                                    queue_wait_ms: timing.queue_wait_ms,
                                    service_ms: timing.service_ms,
                                    batch_size: timing.batch_size,
                                    elapsed_ms: response.prediction.timing.elapsed_s * 1e3,
                                    row_samples: response.prediction.row_samples.clone(),
                                    // Only the answers the output check
                                    // samples are kept.
                                    response: (sent.index % CHECK_EVERY == 0)
                                        .then(|| Box::new(response.prediction)),
                                }
                            }
                            Err(e) => Answer::Failed(e.to_string()),
                        }
                    }
                    Err(ServeError::Overloaded { .. }) => Answer::Rejected,
                    Err(e) => Answer::Failed(e.to_string()),
                };
                records.push(Record {
                    lag_ms: sent.lag_ms,
                    submit_us: sent.submit_us,
                    depth: sent.depth,
                    answer,
                });
            }
            records
        });
        let steal = submitter.join().expect("submitter thread");
        (collector.join().expect("collector thread"), steal)
    });
    (records, vec![submit_tracer, collect_tracer], steal)
}

/// Counts and latencies of one phase.
struct PhaseStats {
    /// Host steal share over the phase.
    steal: f64,
    sent: usize,
    ok: usize,
    met: usize,
    rejected: usize,
    failed: usize,
    images: usize,
    latency: Vec<f64>,
    received: Vec<f64>,
    lag: Vec<f64>,
    depth: Vec<f64>,
}

impl PhaseStats {
    /// A phase is valid when the generator kept to its schedule and the
    /// host left the virtual CPUs to this machine.
    fn valid(&self) -> bool {
        percentile(&self.lag, 99.0) <= LAG_BOUND_MS && self.steal <= STEAL_BOUND
    }

    /// Mean queue depth seen at submission over the step's first and
    /// last quarter.
    fn depth_quarters(&self) -> (f64, f64) {
        let q = (self.depth.len() / 4).max(1).min(self.depth.len());
        (
            mean(&self.depth[..q]),
            mean(&self.depth[self.depth.len() - q..]),
        )
    }

    /// The backlog grew if the queue over the step's last quarter is at
    /// least twice as deep as over its first quarter, and deeper by more
    /// than two full batches.
    fn backlog_grew(&self) -> bool {
        let (first, last) = self.depth_quarters();
        last > 2.0 * first && last > first + 2.0 * MAX_BATCH as f64
    }

    fn met_share(&self) -> f64 {
        self.met as f64 / self.sent.max(1) as f64
    }
}

/// Statistics over the jobs whose phase `select` accepts.
fn phase_stats(
    jobs: &[Job],
    records: &[Record],
    templates: &[Template],
    steal: &StealMarks,
    select: impl Fn(Phase) -> bool,
) -> PhaseStats {
    let shares: Vec<f64> = steal
        .iter()
        .filter(|(phase, _)| select(*phase))
        .map(|&(_, share)| share)
        .collect();
    let mut s = PhaseStats {
        steal: mean(&shares),
        sent: 0,
        ok: 0,
        met: 0,
        rejected: 0,
        failed: 0,
        images: 0,
        latency: Vec::new(),
        received: Vec::new(),
        lag: Vec::new(),
        depth: Vec::new(),
    };
    for (job, record) in jobs.iter().zip(records) {
        if !select(job.phase) {
            continue;
        }
        s.sent += 1;
        s.lag.push(record.lag_ms);
        s.depth.push(record.depth as f64);
        match &record.answer {
            Answer::Ok {
                latency_ms,
                received_ms,
                ..
            } => {
                s.ok += 1;
                s.images += templates[job.template].labels.len();
                if job.settled {
                    s.latency.push(*latency_ms);
                    s.received.push(*received_ms);
                }
                if *latency_ms <= LIMIT_MS {
                    s.met += 1;
                }
            }
            Answer::Rejected => s.rejected += 1,
            Answer::Failed(_) => s.failed += 1,
        }
    }
    s
}

fn same_f32(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_f64(a: &Option<Vec<f64>>, b: &Option<Vec<f64>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

pub fn run(args: &Args, tracer: Tracer) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut train_s = Vec::new();
    let mut state: Option<Setup> = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let s = setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(s.generate_ms);
        train_s.push(s.train_s);
        state = Some(s);
    }
    let Setup {
        net,
        server,
        tenants,
        templates,
        train_images,
        ..
    } = state.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.set("data.generate_ms", median(&generate_ms));
    out.set("supernet.train_s", median(&train_s));
    out.set(
        "supernet.train_images_per_s",
        train_images as f64 / median(&train_s),
    );

    // Warm-up, closed loop, not measured: fills the admission
    // controller's service-time estimate and the engines' caches.
    for i in 0..WARMUP_REQUESTS {
        let template = &templates[i % TEMPLATES];
        let request = ServeRequest::new(template.images.clone()).with_outputs(template.outputs);
        if let Ok(ticket) = server.submit(tenants[template.tenant], request) {
            let _ = ticket.wait();
        }
    }

    let jobs = schedule(args.seed, args.seconds, tracer.enabled());
    let (records, tracers, steal) = drive(&server, tenants, &templates, &jobs, &tracer);
    drop(server);
    out.tracers.extend(tracers);

    // The nominal rate, block by block. p50 and tail are taken over the
    // pooled latencies of the quarter of the blocks the host disturbed
    // least (valid blocks first, then by host steal): the host often
    // disturbed more than half of the blocks of a run. The tail is the
    // percentile that leaves ten samples beyond it in one block; pooled,
    // about seventy lie beyond it, so the few largest requests of one block
    // move it less than they move that block's own tail.
    let stats =
        |select: &dyn Fn(Phase) -> bool| phase_stats(&jobs, &records, &templates, &steal, select);
    let nominal = stats(&|p| matches!(p, Phase::Nominal(_)));
    let blocks: Vec<PhaseStats> = (0..LADDER_STEPS)
        .map(|b| stats(&|p| p == Phase::Nominal(b)))
        .collect();
    let quietest = cleanest(
        blocks
            .iter()
            .map(|b| (b.steal + f64::from(u8::from(!b.valid())), b))
            .collect(),
        4,
    );
    // As on the ladder, an invalid block carries no evidence: it is used
    // only when no block of the quarter is valid.
    let used: Vec<&PhaseStats> = if quietest.iter().any(|b| b.valid()) {
        quietest.into_iter().filter(|b| b.valid()).collect()
    } else {
        quietest
    };
    let pooled: Vec<f64> = used
        .iter()
        .flat_map(|b| b.latency.iter().copied())
        .collect();
    let tail_pct = median(
        &used
            .iter()
            .map(|b| Summary::of(&b.latency).tail_pct)
            .collect::<Vec<_>>(),
    );
    let p50 = median(&pooled);
    let tail = percentile(&pooled, tail_pct);
    out.set("p50_ms", p50);
    out.set("tail_ms", tail);
    out.note(format!(
        "serve-lenet-open nominal {NOMINAL_RPS} req/s in {LADDER_STEPS} blocks: sent {} ok {} \
         met {} rejected {} failed {}; latency from due time to the ready answer {}, to its \
         receipt by the collector {}; generator lag p50 {:.4} ms \
         max {:.4} ms; host steal {:.4}",
        nominal.sent,
        nominal.ok,
        nominal.met,
        nominal.rejected,
        nominal.failed,
        Summary::of(&nominal.latency).describe("ms"),
        Summary::of(&nominal.received).describe("ms"),
        median(&nominal.lag),
        nominal.lag.iter().copied().fold(0.0, f64::max),
        nominal.steal
    ));
    for (b, block) in blocks.iter().enumerate() {
        out.note(format!(
            "  block {b:>2}: {}; lag p99 {:.3} ms, steal {:.4} -> {}{}",
            Summary::of(&block.latency).describe("ms"),
            percentile(&block.lag, 99.0),
            block.steal,
            if block.valid() { "valid" } else { "invalid" },
            if used.iter().any(|u| std::ptr::eq(*u, block)) {
                ", used"
            } else {
                ""
            }
        ));
    }
    out.note(format!(
        "  pooled over the {} least disturbed blocks ({} requests): p50 {p50:.4} ms, \
         tail p{tail_pct:.2} {tail:.4} ms",
        used.len(),
        pooled.len(),
    ));

    // The ladder. Steps pass in order up to saturation, so the number of
    // passing steps names the highest passing rate; counting them keeps a
    // stray pass above saturation, or a miss below it, to one step. An
    // invalid step carries no evidence: below the highest passing step it
    // counts as passing, above it as missing.
    let steps: Vec<PhaseStats> = (0..LADDER_STEPS)
        .map(|k| stats(&|p| p == Phase::Step(k)))
        .collect();
    let passes: Vec<bool> = steps
        .iter()
        .map(|s| s.valid() && s.met_share() >= MET_SHARE && !s.backlog_grew())
        .collect();
    let highest_pass = passes.iter().rposition(|&p| p);
    let counted = steps
        .iter()
        .zip(&passes)
        .enumerate()
        .filter(|&(k, (s, &pass))| pass || (!s.valid() && highest_pass.is_some_and(|h| k < h)))
        .count();
    for (k, (s, pass)) in steps.iter().zip(&passes).enumerate() {
        out.note(format!(
            "  step {k:>2} {:>8.1} req/s: sent {:>5} ok {:>5} met {:>5} ({:.4}) rejected {:>5} \
             failed {} depth {:.1}->{:.1} lag p50 {:.3} max {:.3} ms steal {:.4} -> {}",
            ladder_rate(k),
            s.sent,
            s.ok,
            s.met,
            s.met_share(),
            s.rejected,
            s.failed,
            s.depth_quarters().0,
            s.depth_quarters().1,
            median(&s.lag),
            s.lag.iter().copied().fold(0.0, f64::max),
            s.steal,
            if !s.valid() {
                "invalid"
            } else if *pass {
                "pass"
            } else {
                "miss"
            }
        ));
    }
    let step_s = args.seconds * (1.0 - NOMINAL_SHARE) / LADDER_STEPS as f64;
    let goodput = if counted > 0 {
        ladder_rate(counted - 1)
    } else {
        out.note("  no ladder step met the limit; goodput is the first step's met rate");
        steps[0].met as f64 / step_s
    };
    out.set("goodput_rps", goodput);
    let overload = &steps[LADDER_STEPS - OVERLOAD_STEPS..];
    let valid_overload: Vec<f64> = overload
        .iter()
        .filter(|s| s.valid())
        .map(|s| s.images as f64 / step_s)
        .collect();
    let images_per_s = if valid_overload.is_empty() {
        median(
            &overload
                .iter()
                .map(|s| s.images as f64 / step_s)
                .collect::<Vec<_>>(),
        )
    } else {
        median(&valid_overload)
    };
    out.set("images_per_s", images_per_s);
    out.note(format!(
        "  goodput {goodput:.1} req/s (limit {LIMIT_MS} ms for {:.0}% of requests sent); \
         the last {OVERLOAD_STEPS} steps served {images_per_s:.1} images/s",
        MET_SHARE * 100.0
    ));

    // Escalation over the gated tenant's rows; serving-side timing over
    // the nominal phase.
    let (mut gated_rows, mut escalated, mut ood_rows, mut ood_escalated) = (0, 0, 0, 0);
    let mut queue_wait = Vec::new();
    let mut service = Vec::new();
    let mut batch = Vec::new();
    let mut elapsed = Vec::new();
    for (job, record) in jobs.iter().zip(&records) {
        out.attempted += 1;
        let template = &templates[job.template];
        match &record.answer {
            Answer::Ok {
                queue_wait_ms,
                service_ms,
                batch_size,
                elapsed_ms,
                row_samples,
                ..
            } => {
                if template.tenant == 1 {
                    let rows = row_samples.as_deref().unwrap_or(&[]);
                    for (label, &samples) in template.labels.iter().zip(rows) {
                        gated_rows += 1;
                        let up = usize::from(samples == GATED_SAMPLES);
                        escalated += up;
                        if label.is_none() {
                            ood_rows += 1;
                            ood_escalated += up;
                        }
                    }
                }
                if matches!(job.phase, Phase::Nominal(_)) {
                    queue_wait.push(*queue_wait_ms);
                    service.push(*service_ms);
                    batch.push(*batch_size as f64);
                    elapsed.push(*elapsed_ms);
                }
            }
            Answer::Rejected => {}
            Answer::Failed(e) => {
                out.failed += 1;
                out.note(format!("request failed: {e}"));
            }
        }
    }
    out.note(format!(
        "  gated tenant escalated {escalated}/{gated_rows} rows, {ood_escalated}/{ood_rows} OOD rows"
    ));
    let admitted = records
        .iter()
        .filter(|r| !matches!(r.answer, Answer::Rejected))
        .count();
    let q = Summary::of(&queue_wait);
    let sv = Summary::of(&service);
    out.set("serve.queue_wait_ms.p50", q.p50);
    out.set("serve.queue_wait_ms.tail", q.tail);
    out.set("serve.service_ms.p50", sv.p50);
    out.set("serve.service_ms.tail", sv.tail);
    out.set("serve.batch_size.mean", mean(&batch));
    out.set(
        "serve.queue_depth.max",
        nominal.depth.iter().copied().fold(0.0, f64::max),
    );
    out.set(
        "serve.submit_us.p50",
        median(&records.iter().map(|r| r.submit_us).collect::<Vec<_>>()),
    );
    out.set("serve.admitted", admitted as f64);
    out.set("serve.rejected", (records.len() - admitted) as f64);
    out.set("serve.gen_lag_ms.p50", median(&nominal.lag));
    out.set(
        "serve.gen_lag_ms.max",
        nominal.lag.iter().copied().fold(0.0, f64::max),
    );
    out.set("engine.elapsed_ms.p50", median(&elapsed));
    out.set(
        "adaptive.escalation_rate",
        escalated as f64 / gated_rows.max(1) as f64,
    );
    out.set(
        "adaptive.ood_escalation_rate",
        ood_escalated as f64 / ood_rows.max(1) as f64,
    );
    out.note(format!(
        "  queue wait {}; service {}",
        q.describe("ms"),
        sv.describe("ms")
    ));

    // Output check: sampled answers equal a standalone engine with the
    // same tenant spec serving the request alone.
    let specs = [PLAIN, gated_spec()];
    let mut engines: Vec<_> = specs
        .iter()
        .map(|spec| {
            EngineBuilder::new(net.clone())
                .samples(spec.samples)
                .seed(spec.seed)
                .adaptive(spec.adaptive.clone())
                .build()
        })
        .collect();
    let (mut checked, mut equal) = (0, 0);
    for (job, record) in jobs.iter().zip(&records) {
        let Answer::Ok {
            response: Some(response),
            ..
        } = &record.answer
        else {
            continue;
        };
        let template = &templates[job.template];
        let alone = engines[template.tenant]
            .predict(&PredictRequest::new(&template.images).with_outputs(template.outputs))
            .expect("standalone predict");
        checked += 1;
        if same_f32(&alone.probs, &response.probs)
            && same_f64(&alone.entropy, &response.entropy)
            && same_f64(&alone.mutual_information, &response.mutual_information)
            && alone.row_samples == response.row_samples
        {
            equal += 1;
        }
    }
    out.check(
        checked > 0 && equal == checked,
        format!("{equal}/{checked} sampled answers byte-equal to a standalone engine"),
    );

    // Answer quality of the gated design on a fixed labelled set, the
    // same for every seed: catches a faster but worse answer.
    let eval = generate(
        DatasetKind::MnistLike,
        &DatasetConfig {
            train: 32,
            val: 32,
            test: 1024,
            seed: WEIGHT_SEED ^ 0xE7A1,
            noise: 0.08,
        },
    );
    let (images, labels) = eval.test.full_batch();
    let answer = engines[1]
        .predict(&PredictRequest::new(&images))
        .expect("evaluation predict");
    let acc = accuracy(&answer.probs, &labels).expect("accuracy");
    let cal = ece(&answer.probs, &labels, EceConfig::default()).expect("ece");
    out.set("winner_accuracy", acc);
    out.set("winner_ece", cal);
    out.note(format!(
        "  gated design on a fixed {}-image set: accuracy {acc:.4}, ECE {cal:.4}",
        labels.len()
    ));

    if tracer.enabled() {
        let untraced: Vec<f64> = traced_latencies(&jobs, &records, false);
        let traced: Vec<f64> = traced_latencies(&jobs, &records, true);
        let overhead = median(&traced) / median(&untraced) - 1.0;
        out.set("trace.overhead_share", overhead);
        out.note(format!(
            "tracing overhead: traced nominal p50 {:.4} ms vs untraced {:.4} ms ({:+.2}%)",
            median(&traced),
            median(&untraced),
            overhead * 100.0
        ));
        // Engine overhead: one single-image request on the plain tenant's
        // engine against the same pass walked layer by layer.
        let image = templates
            .iter()
            .find(|t| t.labels.len() == 1)
            .map(|t| t.images.clone())
            .expect("a single-image request");
        let engine = &mut engines[0];
        let mut predict_ms = Vec::new();
        for _ in 0..400 {
            let t = Instant::now();
            let r = engine
                .predict(&PredictRequest::new(&image))
                .expect("predict");
            predict_ms.push(t.elapsed().as_secs_f64() * 1e3);
            engine.recycle(r);
        }
        let walk = walk(
            &net,
            &zoo::lenet(),
            &image,
            WalkPlan {
                samples: PLAIN.samples,
                sample_major: false,
                reps: 200,
            },
        );
        out.note(walk.report("lenet BMM, one image, round-major"));
        crate::walk::set_layer_metrics(&mut out, &walk);
        out.set("engine.predict_ms.p50", median(&predict_ms));
        out.set(
            "engine.overhead_share",
            1.0 - walk.layer_sum_ms / median(&predict_ms),
        );
    }
    out.tracers.push(tracer);
    out
}

/// Nominal-phase latencies of answered requests, traced or not.
fn traced_latencies(jobs: &[Job], records: &[Record], traced: bool) -> Vec<f64> {
    jobs.iter()
        .zip(records)
        .filter(|(job, _)| {
            matches!(job.phase, Phase::Nominal(_)) && job.settled && job.traced == traced
        })
        .filter_map(|(_, record)| match record.answer {
            Answer::Ok { latency_ms, .. } => Some(latency_ms),
            _ => None,
        })
        .collect()
}
