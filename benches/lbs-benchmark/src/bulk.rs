//! `bulk_paper` and `partitioned_paper`: snapshot → policy, then a wave of
//! service requests answered from the fresh policy.

use crate::report::{peak_rss_mb, PassResult};
use crate::stats::Summary;
use crate::trace::{SpanId, Tracer};
use crate::{finish_layers, snapshot, stage_total, PassConfig};
use lbs_core::{verify_policy_aware, Anonymizer, DpScratch};
use lbs_geom::Rect;
use lbs_metrics::{Counter, Metrics, Stage};
use lbs_model::{
    AnonymizedRequest, BulkPolicy, CloakingPolicy, LocationDb, RequestId, RequestParams,
    ServiceRequest, UserId,
};
use lbs_parallel::{anonymize_work_stealing, EngineConfig, ParallelOutcome};
use lbs_tree::{TreeConfig, TreeKind};
use lbs_workload::{derive_seed, generate_master, BayAreaConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Size and shape of a bulk workload.
#[derive(Debug, Clone, Copy)]
pub struct BulkSpec {
    /// Users in the snapshot.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// 1 runs `Anonymizer::build_instrumented` over the whole map; more
    /// runs `anonymize_work_stealing` over that many jurisdictions.
    pub jurisdictions: usize,
    /// Worker threads of the work-stealing pool.
    pub workers: usize,
    /// Requests served from each fresh policy.
    pub requests_per_step: usize,
    /// Set-ups whose median is `setup_s`.
    pub setups: usize,
    /// Timed steps run even when the time budget is spent sooner.
    pub min_steps: u64,
}

impl BulkSpec {
    /// `bulk_paper`: the 1.75M-user Bay Area at k = 50, one jurisdiction.
    pub fn paper() -> Self {
        BulkSpec {
            users: 1_750_000,
            k: 50,
            jurisdictions: 1,
            workers: 1,
            requests_per_step: 10_000,
            setups: 3,
            min_steps: 3,
        }
    }

    /// `partitioned_paper`: the same population over 64 jurisdictions on
    /// two workers (the §V pipeline).
    pub fn partitioned_paper() -> Self {
        BulkSpec { jurisdictions: 64, workers: 2, ..BulkSpec::paper() }
    }
}

/// The population every bulk pass anonymizes: the Bay Area model at
/// `users`, its master seed derived from the workload seed.
fn population(users: usize, seed: u64) -> (LocationDb, Rect) {
    let cfg = BayAreaConfig { seed: derive_seed(seed, 1), ..BayAreaConfig::scaled_to(users) };
    (generate_master(&cfg), cfg.map())
}

/// Order-sensitive FNV-1a over every assignment (users ascending).
fn fingerprint(policy: &BulkPolicy) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: i64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (user, region) in policy.iter() {
        eat(user.0 as i64);
        match region.rect() {
            Some(r) => [r.x0, r.y0, r.x1, r.y1].into_iter().for_each(&mut eat),
            None => eat(-1),
        }
    }
    h
}

/// What one anonymization produced.
enum Built {
    Single(Box<Anonymizer>),
    Partitioned(Box<ParallelOutcome>),
}

impl Built {
    fn policy(&self) -> &BulkPolicy {
        match self {
            Built::Single(engine) => engine.policy(),
            Built::Partitioned(outcome) => &outcome.policy,
        }
    }

    fn cost(&self) -> u128 {
        match self {
            Built::Single(engine) => engine.cost(),
            Built::Partitioned(outcome) => outcome.total_cost,
        }
    }
}

struct Bench<'a> {
    spec: BulkSpec,
    db: &'a LocationDb,
    map: Rect,
    metrics: Option<Metrics>,
}

impl Bench<'_> {
    /// One snapshot → policy call, with its layer spans when traced.
    fn anonymize(
        &self,
        scratch: &mut DpScratch,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        key: u64,
    ) -> Result<(Built, Duration), String> {
        let k = self.spec.k;
        let metrics = self.metrics.as_ref();
        let stages: &[(Stage, &'static str)] = if self.spec.jurisdictions == 1 {
            &[
                (Stage::TreeBuild, "stage.tree_build"),
                (Stage::Dp, "stage.dp"),
                (Stage::Extract, "stage.extract"),
            ]
        } else {
            &[(Stage::Partition, "stage.partition"), (Stage::Merge, "stage.merge")]
        };
        let before: Vec<Duration> = stages.iter().map(|(s, _)| stage_total(metrics, *s)).collect();
        let name = if self.spec.jurisdictions == 1 { "build" } else { "engine" };
        let span = tracer.open(name, parent, key);
        let started = Instant::now();
        let built = if self.spec.jurisdictions == 1 {
            let config = TreeConfig::lazy(TreeKind::Binary, self.map, k);
            Anonymizer::build_instrumented(self.db, config, k, Some(scratch), metrics)
                .map(|engine| Built::Single(Box::new(engine)))
        } else {
            let config = EngineConfig { workers: self.spec.workers, ..EngineConfig::default() };
            anonymize_work_stealing(self.db, self.map, k, self.spec.jurisdictions, &config, metrics)
                .map(|outcome| Built::Partitioned(Box::new(outcome)))
        };
        let elapsed = started.elapsed();
        tracer.close(span);
        let built = built.map_err(|e| format!("anonymization failed: {e}"))?;
        if tracer.enabled() {
            // Partition first, then the pool phase, then merge: the order
            // the engine runs them in.
            for ((stage, label), before) in stages.iter().zip(&before) {
                tracer.derived(span, label, stage_total(metrics, *stage) - *before);
                if let (Stage::Partition, Built::Partitioned(outcome)) = (stage, &built) {
                    tracer.derived(span, "engine.pool", outcome.server_wall_time);
                }
            }
        }
        Ok((built, elapsed))
    }
}

/// Draws `n` service requests from uniformly chosen senders.
fn requests(db: &LocationDb, users: &[UserId], n: usize, rng: &mut StdRng) -> Vec<ServiceRequest> {
    (0..n)
        .filter_map(|_| {
            let user = users[rng.gen_range(0..users.len())];
            let location = db.location(user)?;
            Some(ServiceRequest::new(user, location, RequestParams::from_pairs([("poi", "cafe")])))
        })
        .collect()
}

/// Runs one bulk pass.
///
/// # Errors
/// Set-up failures (the population cannot be anonymized at all).
pub fn run(name: &str, spec: BulkSpec, cfg: &PassConfig) -> Result<PassResult, String> {
    let mut out = PassResult::new(name, cfg.traced);
    let mut tracer = Tracer::new(cfg.traced);
    let (db, map) = population(spec.users, cfg.seed);
    let users: Vec<UserId> = db.users().collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 2));
    let bench = Bench { spec, db: &db, map, metrics: cfg.traced.then(Metrics::new) };

    // Set-up: a cold anonymization with a fresh arena, several times; the
    // last arena is the one the timed loop reuses.
    let mut setup_s = Vec::new();
    let mut scratch = DpScratch::new();
    for i in 0..spec.setups.max(1) {
        scratch = DpScratch::new();
        let span = tracer.open("setup", None, i as u64);
        let started = Instant::now();
        let (built, _) = bench.anonymize(&mut scratch, &mut tracer, Some(span), i as u64)?;
        setup_s.push(started.elapsed().as_secs_f64());
        tracer.close(span);
        drop(built);
    }
    out.put("setup_s", Summary::of(&setup_s, 1.0, "s"));

    let metrics = bench.metrics.as_ref();
    let before = snapshot(metrics);
    let mut step_s = Vec::new();
    let mut serve_us = Vec::new();
    let mut reference: Option<(u64, u128)> = None;
    let mut last: Option<Built> = None;
    let mut spent = Duration::ZERO;
    let mut step = 0u64;
    while cfg.more_steps(step, spent, spec.min_steps) {
        let wave = requests(&db, &users, spec.requests_per_step, &mut rng);
        // One policy at a time: the previous step's is dropped before the
        // next is built, so peak RSS is that of a single anonymization.
        drop(last.take());
        let span = tracer.open("step", None, step);
        let step_started = Instant::now();
        let anonymized = bench.anonymize(&mut scratch, &mut tracer, Some(span), step);
        let mut served: Vec<(usize, Option<AnonymizedRequest>)> = Vec::with_capacity(wave.len());
        if let Ok((built, _)) = &anonymized {
            let policy = built.policy();
            for (i, sr) in wave.iter().enumerate() {
                let rid = RequestId(step << 32 | i as u64);
                let request = tracer.open("serve", Some(span), rid.0);
                let started = Instant::now();
                let answer = policy.anonymize(&db, sr, rid);
                serve_us.push(started.elapsed().as_secs_f64() * 1e6);
                tracer.close(request);
                served.push((i, answer));
            }
        }
        spent += step_started.elapsed();
        tracer.close(span);

        // Output checks, untimed.
        let (built, elapsed) = match anonymized {
            Ok(done) => done,
            Err(e) => {
                out.check(false, || format!("step {step}: {e}"));
                step += 1;
                continue;
            }
        };
        step_s.push(elapsed.as_secs_f64());
        let print = (fingerprint(built.policy()), built.cost());
        let expected = *reference.get_or_insert(print);
        out.check(print == expected, || {
            format!("step {step}: policy fingerprint/cost {print:?} differs from {expected:?}")
        });
        for (i, answer) in served {
            let sr = &wave[i];
            out.check(answer.is_some_and(|ar| ar.region.contains(&sr.location)), || {
                format!("step {step}: request from {} got no masking cloak", sr.user)
            });
        }
        last = Some(built);
        step += 1;
    }
    out.steps = step;
    // Read before the reference runs and verification below, whose
    // memory is the harness's, not the program's.
    out.put("peak_rss_mb", Summary::single(peak_rss_mb(), "MB"));
    let Some(last) = last else {
        return Err("no anonymization succeeded".to_string());
    };
    out.check(verify_policy_aware(last.policy(), &db, spec.k).is_ok(), || {
        "final policy fails verify_policy_aware".to_string()
    });

    let total_s: f64 = step_s.iter().sum();
    out.put("step_p50_ms", Summary::of(&step_s, 1e3, "ms"));
    out.put("items_per_s", Summary::single(db.len() as f64 * step_s.len() as f64 / total_s, "1/s"));
    out.put("serve_p50_us", Summary::of(&serve_us, 1.0, "us"));
    out.put_tails("serve", &serve_us, 1.0, "us");

    let mut layers = Vec::new();
    match &last {
        Built::Single(engine) if cfg.traced => {
            let matrix = engine.matrix();
            let rows = engine.tree().postorder().into_iter().filter_map(|id| matrix.row(id));
            let cells: usize = rows.map(|row| row.dense.len() + 1).sum();
            layers.push(("tree.nodes", engine.tree_stats().nodes as f64));
            layers.push(("dp.rows", matrix.computed_rows() as f64));
            layers.push(("dp.cells", cells as f64));
        }
        Built::Single(_) => {}
        Built::Partitioned(outcome) => {
            let speedup = check_partitioned(&bench, outcome, &step_s, &mut out)?;
            if cfg.traced {
                let after = snapshot(metrics);
                let steps = step_s.len().max(1) as f64;
                let counter = |c: Counter| (after.counter(c) - before.counter(c)) as f64;
                let stage_s = |s: Stage| {
                    (after.stage(s).total_nanos - before.stage(s).total_nanos) as f64 / 1e9
                };
                // The last step stands for all: the pool phase is the only
                // parallel part, so everything else in the call is serial.
                let wall_s = step_s.last().copied().unwrap_or(f64::MIN_POSITIVE);
                let pool_s = outcome.server_wall_time.as_secs_f64();
                let busy_s: f64 = outcome.servers.iter().map(|s| s.elapsed.as_secs_f64()).sum();
                let wait_s = stage_s(Stage::QueueWait);
                let task_s =
                    stage_s(Stage::TreeBuild) + stage_s(Stage::Dp) + stage_s(Stage::Extract);
                layers.push(("engine.tasks", counter(Counter::TasksExecuted) / steps));
                layers.push(("engine.tasks_stolen", counter(Counter::TasksStolen) / steps));
                layers.push(("engine.serial_frac", (wall_s - pool_s).max(0.0) / wall_s));
                layers.push(("engine.worker_util", busy_s / (outcome.workers as f64 * pool_s)));
                layers.push(("engine.queue_wait_frac", wait_s / (wait_s + task_s)));
                layers.push(("engine.speedup", speedup));
            }
        }
    }
    if cfg.traced {
        finish_layers(&mut out, &tracer, &["step"], &layers);
        tracer.write_jsonl(&cfg.trace_path(name)).map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(out)
}

/// The `partitioned_paper` output checks: the policy is identical to an
/// untimed one-worker run, and its cost is within the paper's 1% of the
/// single-jurisdiction optimum. Returns the one-worker run's wall time
/// over the median timed step (the two-worker speed-up).
fn check_partitioned(
    bench: &Bench<'_>,
    outcome: &ParallelOutcome,
    step_s: &[f64],
    out: &mut PassResult,
) -> Result<f64, String> {
    let spec = bench.spec;
    let config = EngineConfig { workers: 1, ..EngineConfig::default() };
    let started = Instant::now();
    let one =
        anonymize_work_stealing(bench.db, bench.map, spec.k, spec.jurisdictions, &config, None)
            .map_err(|e| format!("one-worker reference run failed: {e}"))?;
    let w1_s = started.elapsed().as_secs_f64();
    out.check(
        one.policy.name() == outcome.policy.name() && one.policy.iter().eq(outcome.policy.iter()),
        || "the 2-worker policy differs from the 1-worker policy".to_string(),
    );
    let optimum = Anonymizer::build(bench.db, bench.map, spec.k)
        .map_err(|e| format!("single-jurisdiction optimum failed: {e}"))?;
    let divergence = outcome.divergence_from(optimum.cost());
    out.check(divergence <= 0.01, || {
        format!("partitioned cost diverges {:.4}% from the optimum", divergence * 100.0)
    });
    out.put("divergence_pct", Summary::single(divergence * 100.0, "%"));
    out.put("w1_anonymize_s", Summary::single(w1_s, "s"));
    Ok(w1_s / crate::stats::quantile(step_s, 0.5).unwrap_or(w1_s))
}
