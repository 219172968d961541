//! `churn_fresh` and `churn_deadline`: the two-shard service as
//! `lbs serve --shards 2` runs it, under a closed loop of one client.

use crate::counting_fs::{CountingFs, StorageTotals};
use crate::report::{peak_rss_mb, PassResult};
use crate::stats::Summary;
use crate::trace::{SpanId, Tracer};
use crate::{finish_layers, snapshot, stage_total, PassConfig};
use lbs_core::verify_policy_aware;
use lbs_geom::Point;
use lbs_metrics::{Counter, Metrics, Stage};
use lbs_model::{LocationDb, UserId, UserUpdate};
use lbs_runtime::{
    list_checkpoints, Clock, Rung, RuntimeError, ShardedBuilder, ShardedConfig, ShardedRuntime,
    StorageBackend, SystemClock,
};
use lbs_workload::{derive_seed, generate_master, random_moves, BayAreaConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size and shape of a churn workload.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Users in the initial population.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// Requested shard count.
    pub shards: usize,
    /// Per-shard commits between checkpoints.
    pub checkpoint_every: u64,
    /// Checkpoint generations each shard keeps.
    pub retain_checkpoints: usize,
    /// Share of users moving each epoch.
    pub move_fraction: f64,
    /// Longest move in meters.
    pub max_move_m: f64,
    /// Cloak requests per epoch.
    pub requests_per_epoch: usize,
    /// Epochs between scrubs.
    pub scrub_every: u64,
    /// Crash + recover cycles after the loop, alternating shards.
    pub recoveries: usize,
    /// Set-ups whose median is `setup_s`.
    pub setups: usize,
    /// Epochs run even when the time budget is spent sooner.
    pub min_epochs: u64,
    /// Give every request a deadline that has already passed, and drop
    /// moves that would cross a shard boundary (see [`ChurnSpec::deadline`]).
    pub expired_deadlines: bool,
}

impl ChurnSpec {
    /// `churn_fresh`: 200k users, k = 10, two shards, 1% of users moving
    /// up to 200 m per epoch (the Fig 5(b) model), 1,000 requests per
    /// epoch with no deadline.
    pub fn fresh() -> Self {
        ChurnSpec {
            users: 200_000,
            k: 10,
            shards: 2,
            checkpoint_every: 4,
            retain_checkpoints: 3,
            move_fraction: 0.01,
            max_move_m: 200.0,
            requests_per_epoch: 1_000,
            scrub_every: 10,
            recoveries: 4,
            setups: 3,
            min_epochs: 10,
            expired_deadlines: false,
        }
    }

    /// `churn_deadline`: the same service and traffic with every deadline
    /// already expired, as `lbs serve --deadline-ms 0` runs it. Moves stay
    /// inside their shard: a migrant is absent from its new shard's
    /// committed policy and can leave its old group below k, and the
    /// degradation ladder sheds such senders by design rather than weaken
    /// their cloak. Without migrations every request has a servable rung.
    pub fn deadline() -> Self {
        ChurnSpec { expired_deadlines: true, ..ChurnSpec::fresh() }
    }
}

/// Stage totals a span's derived children are cut from.
const PUMP_STAGES: [(Stage, &str); 3] = [
    (Stage::WalAppend, "stage.wal_append"),
    (Stage::Commit, "stage.commit"),
    (Stage::Checkpoint, "stage.checkpoint"),
];
const SERVE_STAGES: [(Stage, &str); 2] =
    [(Stage::Commit, "stage.commit"), (Stage::Checkpoint, "stage.checkpoint")];

/// Times `call` under a span named `name`, and lays the stage time the
/// runtime recorded during it out as derived children.
fn layered<T>(
    tracer: &mut Tracer,
    metrics: Option<&Metrics>,
    stages: &[(Stage, &'static str)],
    name: &'static str,
    parent: SpanId,
    key: u64,
    call: impl FnOnce() -> T,
) -> (T, Duration) {
    let before: Vec<Duration> = if tracer.enabled() {
        stages.iter().map(|(s, _)| stage_total(metrics, *s)).collect()
    } else {
        Vec::new()
    };
    let span = tracer.open(name, Some(parent), key);
    let started = Instant::now();
    let value = call();
    let elapsed = started.elapsed();
    tracer.close(span);
    for ((stage, label), before) in stages.iter().zip(before) {
        tracer.derived(span, label, stage_total(metrics, *stage) - before);
    }
    (value, elapsed)
}

/// Bytes in every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs one churn pass. The service directory lives under the pass's
/// output directory and is removed before returning.
///
/// # Errors
/// Set-up failures (the service cannot be created).
pub fn run(name: &str, spec: ChurnSpec, cfg: &PassConfig) -> Result<PassResult, String> {
    let root = cfg.out_dir.join(format!("svc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = drive(name, spec, cfg, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn drive(name: &str, spec: ChurnSpec, cfg: &PassConfig, root: &Path) -> Result<PassResult, String> {
    let mut out = PassResult::new(name, cfg.traced);
    let mut tracer = Tracer::new(cfg.traced);
    // The population is the fixed Bay Area master (its default seed); the
    // workload seed draws the movement and the query senders. At 200k
    // users the shard trees' shape follows the 24 city clusters' random
    // placement, and a population seed alone moved `churn_deadline`'s
    // serve median by half (222–332 µs over ten seeds at equal load).
    let population = BayAreaConfig::scaled_to(spec.users);
    let map = population.map();
    let db0 = generate_master(&population);
    let mut mirror = db0.clone();
    let mut users: Vec<UserId> = db0.users().collect();
    users.sort_unstable();
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 2));

    let clock = Arc::new(SystemClock::new());
    let metrics = cfg.traced.then(|| Arc::new(Metrics::new()));
    let fs = cfg.traced.then(|| Arc::new(CountingFs::new()));
    let counts = fs.as_ref().map(|fs| fs.counts());
    let storage = || counts.as_ref().map_or_else(StorageTotals::default, |c| c.totals());
    let mut shard_cfg = ShardedConfig::new(spec.k, map, spec.shards);
    shard_cfg.checkpoint_every = spec.checkpoint_every;
    shard_cfg.retain_checkpoints = Some(spec.retain_checkpoints);
    let builder = || {
        let mut b = ShardedBuilder::new(shard_cfg).clock(Arc::clone(&clock) as Arc<dyn Clock>);
        if let Some(m) = &metrics {
            b = b.metrics(Arc::clone(m));
        }
        if let Some(fs) = &fs {
            b = b.storage(Arc::clone(fs) as Arc<dyn StorageBackend>);
        }
        b
    };

    // Set-up: create the service from the initial population, several
    // times into fresh directories; the last one serves the loop.
    let mut setup_s = Vec::new();
    let mut service: Option<ShardedRuntime> = None;
    for i in 0..spec.setups.max(1) {
        if let Some(previous) = service.take() {
            let dir = previous.dir().to_path_buf();
            drop(previous);
            let _ = std::fs::remove_dir_all(dir);
        }
        let span = tracer.open("setup", None, i as u64);
        let started = Instant::now();
        let created = builder().create(&root.join(format!("setup-{i}")), &db0);
        setup_s.push(started.elapsed().as_secs_f64());
        tracer.close(span);
        service = Some(created.map_err(|e| format!("creating the sharded service: {e}"))?);
    }
    let Some(mut rt) = service else { return Err("no set-up ran".to_string()) };
    out.put("setup_s", Summary::of(&setup_s, 1.0, "s"));
    let plan = rt.plan().clone();

    let m = metrics.as_deref();
    let before = snapshot(m);
    let storage_before = storage();
    let published_before = published(&rt);
    let mut scrub_read = 0u64;
    let mut epoch_s = Vec::new();
    let mut serve_us = Vec::new();
    let mut rungs = [0u64; 4];
    let (mut moved, mut migrations) = (0usize, 0u64);
    let mut spent = Duration::ZERO;
    let mut epoch = 0u64;
    while cfg.more_steps(epoch, spent, spec.min_epochs) {
        // Harness: this epoch's movement wave, applied to the mirror
        // first, and the senders of its query wave.
        let seed = derive_seed(cfg.seed, 100 + epoch);
        let mut moves = random_moves(&mirror, &map, spec.move_fraction, spec.max_move_m, seed);
        if spec.expired_deadlines {
            let shard_at = |p: &Point| plan.route_point(p);
            moves
                .retain(|m| mirror.location(m.user).map(|p| shard_at(&p)) == Some(shard_at(&m.to)));
        }
        let batch: Vec<UserUpdate> = moves.into_iter().map(UserUpdate::Move).collect();
        mirror.apply_updates(&batch).map_err(|e| format!("epoch {epoch}: mirror: {e:?}"))?;
        let senders: Vec<UserId> =
            (0..spec.requests_per_epoch).map(|_| users[rng.gen_range(0..users.len())]).collect();
        let mut served = Vec::with_capacity(senders.len());

        let span = tracer.open("epoch", None, epoch);
        let started = Instant::now();
        let (pumped, _) =
            layered(&mut tracer, m, &PUMP_STAGES, "pump", span, epoch, || rt.pump(&batch));
        for (j, &user) in senders.iter().enumerate() {
            let deadline = spec.expired_deadlines.then(|| clock.now());
            let rid = epoch << 32 | j as u64;
            let (answer, took) = layered(&mut tracer, m, &SERVE_STAGES, "serve", span, rid, || {
                rt.cloak_for(user, deadline)
            });
            serve_us.push(took.as_secs_f64() * 1e6);
            served.push((user, answer));
        }
        let scrubbed = (epoch + 1).is_multiple_of(spec.scrub_every.max(1)).then(|| {
            let io = storage();
            let (reports, _) = layered(&mut tracer, m, &[], "scrub", span, epoch, || rt.scrub());
            scrub_read += (storage() - io).read_bytes;
            reports
        });
        let took = started.elapsed();
        tracer.close(span);
        spent += took;
        epoch_s.push(took.as_secs_f64());

        // Output checks, untimed.
        match pumped {
            Ok(report) => {
                migrations += report.migrations;
                out.check(report.degraded_shards.is_empty(), || {
                    format!("epoch {epoch}: shards {:?} could not commit", report.degraded_shards)
                });
            }
            Err(e) => out.check(false, || format!("epoch {epoch}: pump: {e}")),
        }
        moved += batch.len();
        for (user, answer) in served {
            match answer {
                Ok((rung, region)) => {
                    rungs[rung_index(rung)] += 1;
                    out.check(mirror.location(user).is_some_and(|p| region.contains(&p)), || {
                        format!("epoch {epoch}: {user} got a cloak that does not mask it")
                    });
                    // Without a deadline every commit can finish in time.
                    if !spec.expired_deadlines && rung != Rung::Fresh {
                        out.fail(format!("epoch {epoch}: {user} was served {}", rung.name()));
                    }
                }
                Err(RuntimeError::Shed { .. }) => {
                    rungs[3] += 1;
                    out.check(false, || format!("epoch {epoch}: {user} was shed"));
                }
                Err(e) => out.check(false, || format!("epoch {epoch}: cloak for {user}: {e}")),
            }
        }
        match scrubbed {
            Some(Ok(reports)) => out.check(reports.iter().flatten().all(|r| r.is_clean()), || {
                format!("epoch {epoch}: scrub found damage on a healthy disk")
            }),
            Some(Err(e)) => out.check(false, || format!("epoch {epoch}: scrub: {e}")),
            None => {}
        }
        epoch += 1;
    }
    out.steps = epoch;
    let after = snapshot(m);
    let loop_io = storage() - storage_before;
    let published_loop = published(&rt) - published_before;

    // Crash + recover cycles, alternating shards.
    let mut recover_ms = Vec::new();
    let (mut replayed, mut recover_read) = (0usize, 0u64);
    for i in 0..spec.recoveries {
        let shard = i % rt.shard_count();
        let io = storage();
        let span = tracer.open("recover", None, i as u64);
        let started = Instant::now();
        let recovered = rt.crash_shard(shard).and_then(|()| rt.recover_shard(shard));
        recover_ms.push(started.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        recover_read += (storage() - io).read_bytes;
        match recovered {
            Ok(report) => {
                replayed += report.replayed;
                out.check(true, String::new);
            }
            Err(e) => out.check(false, || format!("recovering shard {shard}: {e}")),
        }
    }

    // Drain, then the service must hold exactly the mirror's population
    // under a policy-aware policy, with retention bounded on disk.
    if let Err(e) = rt.drain() {
        out.check(false, || format!("drain: {e}"));
    }
    // Read before the checks below, whose memory is the harness's.
    out.put("peak_rss_mb", Summary::single(peak_rss_mb(), "MB"));
    check_final_state(&rt, &mirror, spec, &mut out);
    let disk_mb = dir_bytes(rt.dir()) as f64 / (1024.0 * 1024.0);
    drop(rt);

    out.put("step_p50_ms", Summary::of(&epoch_s, 1e3, "ms"));
    out.put("items_per_s", Summary::single(moved as f64 / spent.as_secs_f64(), "1/s"));
    out.put("serve_p50_us", Summary::of(&serve_us, 1.0, "us"));
    out.put_tails("serve", &serve_us, 1.0, "us");
    out.put_tails("epoch", &epoch_s, 1e3, "ms");
    out.put("recover_p50_ms", Summary::of(&recover_ms, 1.0, "ms"));
    out.put("disk_mb", Summary::single(disk_mb, "MB"));

    if cfg.traced {
        let epochs = epoch.max(1) as f64;
        let counter = |c: Counter| (after.counter(c) - before.counter(c)) as f64 / epochs;
        let commits = after.stage(Stage::Commit).calls - before.stage(Stage::Commit).calls;
        let wall_ns: u64 = crate::trace::root_total_ns(tracer.spans(), "epoch");
        let gc_read = loop_io.read_bytes.saturating_sub(scrub_read);
        let recoveries = spec.recoveries.max(1) as f64;
        let per_epoch = |v: u64| v as f64 / epochs;
        let layers = [
            ("commit.calls", commits as f64 / epochs),
            ("commit.published", published_loop as f64 / epochs),
            ("commit.useful_frac", published_loop as f64 / commits.max(1) as f64),
            ("commit.dirty_subtrees", counter(Counter::DirtySubtrees)),
            ("commit.cache_hits", counter(Counter::SubtreeCacheHits)),
            ("commit.moves", counter(Counter::BatchedMoves)),
            ("wal.appends", counter(Counter::WalAppends)),
            ("wal.bytes", per_epoch(loop_io.wal_bytes)),
            ("wal.fsyncs", per_epoch(loop_io.wal_syncs)),
            ("checkpoint.count", counter(Counter::CheckpointsWritten)),
            ("checkpoint.bytes", per_epoch(loop_io.checkpoint_bytes)),
            ("gc.read_bytes", per_epoch(gc_read)),
            ("scrub.read_bytes", per_epoch(scrub_read)),
            ("recover.replayed", replayed as f64 / recoveries),
            ("recover.read_bytes", recover_read as f64 / recoveries),
            ("storage.writes", per_epoch(loop_io.writes)),
            ("storage.write_bytes", per_epoch(loop_io.write_bytes)),
            ("storage.syncs", per_epoch(loop_io.syncs)),
            ("storage.sync_share", loop_io.sync_ns as f64 / wall_ns.max(1) as f64),
            ("storage.reads", per_epoch(loop_io.reads)),
            ("storage.read_bytes", per_epoch(loop_io.read_bytes)),
            ("storage.renames", per_epoch(loop_io.renames)),
            ("storage.removes", per_epoch(loop_io.removes)),
            ("storage.disk_mb", disk_mb),
            ("migrations", migrations as f64 / epochs),
            ("serve.requests", serve_us.len() as f64 / epochs),
            ("serve.rung_fresh", rungs[0] as f64 / epochs),
            ("serve.rung_committed", rungs[1] as f64 / epochs),
            ("serve.rung_coarsened", rungs[2] as f64 / epochs),
            ("serve.rung_shed", rungs[3] as f64 / epochs),
        ];
        finish_layers(&mut out, &tracer, &["epoch"], &layers);
        tracer.write_jsonl(&cfg.trace_path(name)).map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(out)
}

fn rung_index(rung: Rung) -> usize {
    match rung {
        Rung::Fresh => 0,
        Rung::Committed => 1,
        Rung::Coarsened => 2,
    }
}

/// Policy epochs published so far, summed over the up shards.
fn published(rt: &ShardedRuntime) -> u64 {
    (0..rt.shard_count()).filter_map(|i| rt.shard(i)).map(|s| s.epoch()).sum()
}

/// The after-`drain` checks: the merged database equals the mirror, the
/// merged policy is policy-aware k-anonymous over it, and no shard keeps
/// more checkpoint generations than the retention bound.
fn check_final_state(
    rt: &ShardedRuntime,
    mirror: &LocationDb,
    spec: ChurnSpec,
    out: &mut PassResult,
) {
    match rt.merged_db() {
        Ok(merged) => {
            let mut expected: Vec<_> = mirror.iter().collect();
            expected.sort_unstable_by_key(|(user, _)| *user);
            out.check(merged.iter().eq(expected), || {
                "the merged shard databases differ from the mirror".to_string()
            });
        }
        Err(e) => out.check(false, || format!("merged_db: {e}")),
    }
    out.check(verify_policy_aware(&rt.merged_policy(), mirror, spec.k).is_ok(), || {
        "the merged policy fails verify_policy_aware".to_string()
    });
    for shard in 0..rt.shard_count() {
        let generations = list_checkpoints(&rt.shard_dir(shard)).map_or(usize::MAX, |g| g.len());
        out.check(generations <= spec.retain_checkpoints, || {
            format!("shard {shard} keeps {generations} checkpoint generations")
        });
    }
}
