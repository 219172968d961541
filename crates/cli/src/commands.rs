//! Subcommand implementations. Each writes human-readable output to the
//! supplied writer so tests can capture it.

use crate::{Args, ArgsError};
use bytes::Bytes;
use lbs_attack::audit_policy;
use lbs_baselines::{Casper, PolicyUnawareBinary, PolicyUnawareQuad};
use lbs_conformance::Tier;
use lbs_core::{verify_policy_aware, Anonymizer};
use lbs_geom::Rect;
use lbs_metrics::Metrics;
use lbs_model::{
    decode_policy, decode_snapshot, encode_policy, encode_snapshot, BulkPolicy, CloakingPolicy,
    LocationDb, ModelError, UserId, UserUpdate,
};
use lbs_parallel::{anonymize_work_stealing, EngineConfig};
use lbs_runtime::{RuntimeBuilder, RuntimeConfig, RuntimeError};
use lbs_tree::{SpatialTree, TreeConfig, TreeKind, TreeStats};
use lbs_workload::{derive_seed, generate_master, random_moves, BayAreaConfig};
use std::io::Write;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgsError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// File I/O failure.
    Io(std::io::Error),
    /// Codec failure.
    Codec(ModelError),
    /// Anonymization failure.
    Anonymize(String),
    /// Conformance sweep or golden-corpus failures (one line each).
    Conformance(Vec<String>),
    /// Lint driver failure or unsuppressed lint errors.
    Lint(String),
    /// Service runtime failure (WAL, checkpoint, recovery, serving).
    Runtime(lbs_runtime::RuntimeError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; try {}", command_names().join("/"))
            }
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Codec(e) => write!(f, "codec error: {e}"),
            CliError::Anonymize(msg) => write!(f, "{msg}"),
            CliError::Conformance(problems) => {
                writeln!(f, "conformance failed ({} problems):", problems.len())?;
                for p in problems {
                    writeln!(f, "  {p}")?;
                }
                Ok(())
            }
            CliError::Lint(msg) => write!(f, "lint failed: {msg}"),
            CliError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ModelError> for CliError {
    fn from(e: ModelError) -> Self {
        CliError::Codec(e)
    }
}

impl From<lbs_runtime::RuntimeError> for CliError {
    fn from(e: lbs_runtime::RuntimeError) -> Self {
        CliError::Runtime(e)
    }
}

type Command = fn(&Args, &mut dyn Write) -> Result<(), CliError>;

/// Every subcommand in usage order: the dispatch table behind [`run`],
/// the usage line, and the unknown-command hint all read this one list.
const COMMANDS: &[(&str, Command)] = &[
    ("gen", gen),
    ("anonymize", anonymize),
    ("audit", audit),
    ("stats", stats),
    ("compare", compare),
    ("lookup", lookup),
    ("conformance", conformance),
    ("lint", lint),
    ("serve", serve),
    ("soak", soak),
    ("recover", recover),
    ("recovery-smoke", recovery_smoke),
    ("scrub", scrub),
];

/// The subcommand names, in usage order.
pub fn command_names() -> Vec<&'static str> {
    COMMANDS.iter().map(|&(name, _)| name).collect()
}

/// Dispatches a parsed command, writing reports to `out`.
///
/// # Errors
/// Every failure path is a typed [`CliError`]; nothing panics on bad
/// user input.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match command(&args.command) {
        Some(command) => command(args, out),
        None => Err(CliError::UnknownCommand(args.command.clone())),
    }
}

fn command(name: &str) -> Option<Command> {
    COMMANDS.iter().find(|&&(listed, _)| listed == name).map(|&(_, command)| command)
}

fn load_snapshot(path: &str) -> Result<LocationDb, CliError> {
    let raw = std::fs::read(path)?;
    Ok(decode_snapshot(Bytes::from(raw))?)
}

fn load_policy(path: &str) -> Result<BulkPolicy, CliError> {
    let raw = std::fs::read(path)?;
    Ok(decode_policy(Bytes::from(raw))?)
}

/// The square power-of-two map covering a snapshot (or the default
/// Bay-Area map when the snapshot already fits it).
fn map_for(db: &LocationDb) -> Rect {
    let default = BayAreaConfig::default().map();
    match db.bounding_rect() {
        None => default,
        Some(b) if default.contains_rect(&b) => default,
        Some(b) => {
            let extent = b.x1.max(b.y1).max(1);
            let side = (extent as u64).next_power_of_two() as i64;
            Rect::square(0, 0, side)
        }
    }
}

fn gen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let users: usize = args.required_parse("users")?;
    let seed: u64 = args.parse_or("seed", BayAreaConfig::default().seed)?;
    let path = args.required("out")?;
    let cfg = BayAreaConfig { seed, ..BayAreaConfig::scaled_to(users) };
    let db = generate_master(&cfg);
    std::fs::write(path, encode_snapshot(&db))?;
    writeln!(out, "wrote {} users to {path} (map side {} m, seed {seed})", db.len(), cfg.map_side)?;
    Ok(())
}

fn anonymize(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let db = load_snapshot(args.required("snapshot")?)?;
    let k: usize = args.required_parse("k")?;
    let servers: usize = args.parse_or("servers", 1)?;
    let workers: usize = args.parse_or("workers", 0)?;
    let path = args.required("out")?;
    let metrics_path = args.optional("metrics-json").map(str::to_owned);
    let map = map_for(&db);

    let metrics = Metrics::new();
    let sink = metrics_path.as_ref().map(|_| &metrics);

    let (policy, cost) = if servers <= 1 {
        let config = TreeConfig::lazy(TreeKind::Binary, map, k);
        let engine = Anonymizer::build_instrumented(&db, config, k, None, sink)
            .map_err(|e| CliError::Anonymize(e.to_string()))?;
        (engine.policy().clone(), engine.cost())
    } else {
        let engine_config = EngineConfig { workers, ..EngineConfig::default() };
        let outcome = anonymize_work_stealing(&db, map, k, servers, &engine_config, sink)
            .map_err(|e| CliError::Anonymize(e.to_string()))?;
        (outcome.policy, outcome.total_cost)
    };
    std::fs::write(path, encode_policy(&policy))?;
    let stats = policy.stats();
    writeln!(
        out,
        "anonymized {} users at k={k} ({} cloak groups, min group {}, cost {} m^2) -> {path}",
        stats.users, stats.groups, stats.min_group, cost
    )?;
    if let Some(mpath) = metrics_path {
        let json = serde_json::to_string_pretty(&metrics.snapshot())
            .map_err(|e| CliError::Anonymize(format!("metrics serialization: {e}")))?;
        std::fs::write(&mpath, json)?;
        writeln!(out, "metrics -> {mpath}")?;
    }
    Ok(())
}

fn audit(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let db = load_snapshot(args.required("snapshot")?)?;
    let policy = load_policy(args.required("policy")?)?;
    let k: usize = args.required_parse("k")?;
    let breaches = audit_policy(&policy, &db, k);
    match verify_policy_aware(&policy, &db, k) {
        Ok(()) => writeln!(
            out,
            "OK: policy {:?} provides sender {k}-anonymity against policy-aware attackers \
             ({} users, {} groups)",
            policy.name(),
            policy.len(),
            policy.groups().len()
        )?,
        Err(violations) => {
            writeln!(
                out,
                "FAIL: {} violations, {} breachable cloaks",
                violations.len(),
                breaches.len()
            )?;
            for b in breaches.iter().take(10) {
                writeln!(out, "  cloak {} -> candidates {:?}", b.region, b.candidates)?;
            }
        }
    }
    Ok(())
}

fn stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let db = load_snapshot(args.required("snapshot")?)?;
    let k: usize = args.parse_or("k", 50)?;
    let map = map_for(&db);
    let tree = SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k))
        .map_err(CliError::Anonymize)?;
    writeln!(out, "{} users on {map}; binary tree at k={k}:", db.len())?;
    writeln!(out, "{}", TreeStats::compute(&tree))?;
    Ok(())
}

fn compare(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let db = load_snapshot(args.required("snapshot")?)?;
    let k: usize = args.required_parse("k")?;
    let map = map_for(&db);
    let rows: Vec<(&str, f64)> = vec![
        (
            "casper",
            Casper::build(&db, map, k)
                .map_err(CliError::Anonymize)?
                .materialize(&db)
                .avg_area_f64(),
        ),
        (
            "pub",
            PolicyUnawareBinary::build(&db, map, k)
                .map_err(CliError::Anonymize)?
                .materialize(&db)
                .avg_area_f64(),
        ),
        (
            "puq",
            PolicyUnawareQuad::build(&db, map, k)
                .map_err(CliError::Anonymize)?
                .materialize(&db)
                .avg_area_f64(),
        ),
        (
            "policy-aware",
            Anonymizer::build(&db, map, k)
                .map_err(|e| CliError::Anonymize(e.to_string()))?
                .avg_cloak_area(),
        ),
    ];
    writeln!(out, "average cloak area at k={k} over {} users:", db.len())?;
    for (name, area) in rows {
        writeln!(out, "  {name:>13}: {area:>14.0} m^2")?;
    }
    Ok(())
}

fn lookup(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let policy = load_policy(args.required("policy")?)?;
    let user = UserId(args.required_parse("user")?);
    match policy.cloak_of(user) {
        Some(region) => writeln!(out, "{user} -> {region}")?,
        None => writeln!(out, "{user} has no cloak in this policy")?,
    }
    Ok(())
}

fn conformance(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let seed: u64 = args.parse_or("seed", lbs_conformance::DEFAULT_MASTER_SEED)?;
    let tier = match args.optional("tier").unwrap_or("smoke") {
        "smoke" => Tier::Smoke,
        "soak" => Tier::Soak,
        other => {
            return Err(CliError::Anonymize(format!(
                "unknown tier {other:?}; use --tier smoke or --tier soak"
            )))
        }
    };
    let bless: bool = args.parse_or("bless", false)?;
    let golden_dir = args.optional("golden").map(std::path::PathBuf::from);

    if bless {
        let dir = golden_dir
            .ok_or_else(|| CliError::Anonymize("--bless true requires --golden DIR".into()))?;
        let counts = lbs_conformance::bless_all(&dir, seed).map_err(CliError::Anonymize)?;
        let blessed: Vec<String> =
            counts.iter().map(|(corpus, n)| format!("{n} {corpus}")).collect();
        writeln!(
            out,
            "blessed {} records into {} (master seed {seed}); review the diff",
            blessed.join(", "),
            dir.display()
        )?;
        return Ok(());
    }

    let report = lbs_conformance::run_matrix(seed, tier);
    write!(out, "{report}")?;
    let mut problems = report.failures.clone();
    if report.baseline_breaches() == 0 {
        problems.push(format!(
            "expected the policy-aware attacker to reproduce at least one Example-1 style \
             breach against the k-inside baselines (master seed {seed})"
        ));
    }
    if let Some(dir) = golden_dir {
        match lbs_conformance::check_all(&dir, seed) {
            Ok(counts) => {
                for (corpus, n) in counts {
                    writeln!(out, "{corpus} golden corpus: {n} records match {}", dir.display())?;
                }
            }
            Err(mut drift) => problems.append(&mut drift),
        }
    }
    if problems.is_empty() {
        writeln!(out, "conformance: PASS (replay with --seed {seed})")?;
        Ok(())
    } else {
        Err(CliError::Conformance(problems))
    }
}

fn lint(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if args.parse_or("list", false)? {
        writeln!(out, "registered lints ({}):", lbs_lint::LINTS.len())?;
        for l in lbs_lint::LINTS {
            let tag = if l.deep { " (deep)" } else { "" };
            writeln!(out, "  {:5} {:34} {}{tag}", l.severity.name(), l.name, l.summary)?;
        }
        return Ok(());
    }
    let root = match args.optional("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => find_workspace_root()?,
    };
    // `--deep true` enables the interprocedural passes (all of them, or
    // the subset named in `--passes a,b`); `--passes` implies `--deep`.
    let passes_arg = args.optional("passes");
    let deep = args.parse_or("deep", false)? || passes_arg.is_some();
    let report = if deep {
        let passes = match passes_arg {
            Some(list) => lbs_lint::PassSet::parse(list).map_err(CliError::Lint)?,
            None => lbs_lint::PassSet::all(),
        };
        lbs_lint::lint_workspace_deep(&root, &passes).map_err(|e| CliError::Lint(e.to_string()))?
    } else {
        lbs_lint::lint_workspace(&root).map_err(|e| CliError::Lint(e.to_string()))?
    };
    match args.optional("format").unwrap_or("human") {
        "json" => writeln!(out, "{}", report.to_json().map_err(CliError::Lint)?)?,
        "human" => write!(out, "{}", report.render_human())?,
        other => {
            return Err(CliError::Lint(format!("unknown format {other:?}; use human or json")))
        }
    }
    if report.errors() > 0 {
        return Err(CliError::Lint(format!(
            "{} unsuppressed lint errors (suppress only with \
             `// lbs-lint: allow(<lint>, reason = \"…\")`)",
            report.errors()
        )));
    }
    Ok(())
}

/// One scripted service round: a seeded 20% of the population moves.
fn service_churn(rt: &lbs_runtime::ServiceRuntime, seed: u64, round: u64) -> Vec<UserUpdate> {
    let map = rt.map();
    random_moves(rt.db(), &map, 0.2, (map.x1 - map.x0) as f64 / 8.0, derive_seed(seed, round))
        .into_iter()
        .map(UserUpdate::Move)
        .collect()
}

/// `lbs serve`: run the crash-safe service loop for a scripted number of
/// rounds — durable churn ingestion, deadline-budgeted serving through
/// the degradation ladder, periodic checkpoints. The directory can be
/// re-served (or `lbs recover`ed) later; state survives kills.
///
/// `--shards N` (N > 1) runs the shared-nothing sharded service instead:
/// the jurisdiction tree is partitioned into N shards, each with its own
/// WAL and checkpoint lineage, and churn is epoch-pipelined through the
/// admission-controlled batcher.
fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = std::path::PathBuf::from(args.required("dir")?);
    let rounds: u64 = args.parse_or("rounds", 5)?;
    let requests: usize = args.parse_or("requests", 8)?;
    let seed: u64 = args.parse_or("seed", 0x00C0_FFEE)?;
    let shards: usize = args.parse_or("shards", 1)?;
    let deadline_ms: Option<u64> = match args.optional("deadline-ms") {
        None => None,
        Some(raw) => Some(raw.parse().map_err(|_| {
            CliError::Args(ArgsError::BadValue { key: "deadline-ms", value: raw.to_string() })
        })?),
    };
    let metrics_path = args.optional("metrics-json").map(str::to_owned);
    let metrics = std::sync::Arc::new(Metrics::new());
    if shards > 1 {
        return serve_sharded(
            args,
            out,
            ShardedServeOpts {
                dir: &dir,
                shards,
                rounds,
                requests,
                seed,
                deadline_ms,
                metrics: &metrics,
                metrics_path: metrics_path.as_deref(),
            },
        );
    }

    let has_state = dir.is_dir() && lbs_runtime::load_latest(&dir)?.is_some();
    let mut runtime = if has_state {
        let cfg = RuntimeConfig::new(2, Rect::square(0, 0, 2)); // overridden by the checkpoint
        let (rt, report) =
            RuntimeBuilder::new(cfg).metrics(std::sync::Arc::clone(&metrics)).recover(&dir)?;
        writeln!(
            out,
            "recovered {} from checkpoint seq {} (+{} replayed records)",
            dir.display(),
            report.checkpoint_seq,
            report.replayed
        )?;
        rt
    } else {
        let db = load_snapshot(args.required("snapshot")?)?;
        let k: usize = args.required_parse("k")?;
        let cfg = RuntimeConfig::new(k, map_for(&db));
        let rt =
            RuntimeBuilder::new(cfg).metrics(std::sync::Arc::clone(&metrics)).create(&dir, &db)?;
        writeln!(out, "created {} ({} users, k={k})", dir.display(), db.len())?;
        rt
    };

    let mut rung_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut shed = 0u64;
    for round in 0..rounds {
        let batch = service_churn(&runtime, seed, round);
        let seq = runtime.apply_batch(&batch)?;
        // Serve a seeded sample of senders under the deadline budget:
        // expired budgets walk the degradation ladder instead of failing.
        let users: Vec<UserId> = runtime.db().users().collect();
        for i in 0..requests.min(users.len()) {
            let pick = derive_seed(seed, round * 1009 + i as u64) as usize % users.len();
            let deadline =
                deadline_ms.map(|ms| runtime.clock().now() + std::time::Duration::from_millis(ms));
            match runtime.cloak_for(users[pick], deadline) {
                Ok((rung, _)) => *rung_counts.entry(rung.name()).or_insert(0) += 1,
                Err(RuntimeError::Shed { .. }) => shed += 1,
                Err(other) => return Err(other.into()),
            }
        }
        runtime.commit()?;
        writeln!(
            out,
            "round {round}: ingested batch seq {seq} ({} updates), committed epoch {}",
            batch.len(),
            runtime.epoch()
        )?;
    }
    runtime.checkpoint_now()?;
    let stats = runtime.committed_policy().stats();
    writeln!(
        out,
        "served {} requests (rungs: {rung_counts:?}, shed {shed}); \
         final epoch {}, durable seq {}, {} cloak groups, min group {}",
        rung_counts.values().sum::<u64>() + shed,
        runtime.epoch(),
        runtime.durable_seq(),
        stats.groups,
        stats.min_group
    )?;
    if let Some(mpath) = metrics_path {
        let json = serde_json::to_string_pretty(&metrics.snapshot())
            .map_err(|e| CliError::Anonymize(format!("metrics serialization: {e}")))?;
        std::fs::write(&mpath, json)?;
        writeln!(out, "metrics -> {mpath}")?;
    }
    Ok(())
}

/// Everything `serve_sharded` needs beyond the raw args.
struct ShardedServeOpts<'a> {
    dir: &'a std::path::Path,
    shards: usize,
    rounds: u64,
    requests: usize,
    seed: u64,
    deadline_ms: Option<u64>,
    metrics: &'a std::sync::Arc<Metrics>,
    metrics_path: Option<&'a str>,
}

/// The `--shards N` arm of `lbs serve`: create or recover a sharded
/// directory, then epoch-pipeline churn through `pump` while serving a
/// seeded request sample against the per-shard degradation ladders.
fn serve_sharded(
    args: &Args,
    out: &mut dyn Write,
    opts: ShardedServeOpts<'_>,
) -> Result<(), CliError> {
    use lbs_runtime::{ShardedBuilder, ShardedConfig, SystemClock};

    let clock: std::sync::Arc<dyn lbs_runtime::Clock> = std::sync::Arc::new(SystemClock::new());
    let has_state = opts.dir.join(lbs_runtime::MANIFEST_FILE).is_file();
    let mut runtime = if has_state {
        // k and map are placeholders: each shard restores its own
        // config from its newest checkpoint.
        let cfg = ShardedConfig::new(2, Rect::square(0, 0, 2), opts.shards);
        let builder = ShardedBuilder::new(cfg)
            .clock(std::sync::Arc::clone(&clock))
            .metrics(std::sync::Arc::clone(opts.metrics));
        let (rt, reports) = builder.recover(opts.dir)?;
        let replayed: usize = reports.iter().map(|r| r.replayed).sum();
        writeln!(
            out,
            "recovered {} ({} shards, +{} replayed records total)",
            opts.dir.display(),
            rt.shard_count(),
            replayed
        )?;
        let purged: usize = rt.reconciled_purges().iter().sum();
        if purged > 0 {
            writeln!(out, "reconciled {purged} torn-migration duplicate(s) across shards")?;
        }
        rt
    } else {
        let db = load_snapshot(args.required("snapshot")?)?;
        let k: usize = args.required_parse("k")?;
        let cfg = ShardedConfig::new(k, map_for(&db), opts.shards);
        let builder = ShardedBuilder::new(cfg)
            .clock(std::sync::Arc::clone(&clock))
            .metrics(std::sync::Arc::clone(opts.metrics));
        let rt = builder.create(opts.dir, &db)?;
        writeln!(
            out,
            "created {} ({} users, k={k}, {} shards)",
            opts.dir.display(),
            db.len(),
            rt.shard_count()
        )?;
        rt
    };

    let map = runtime.plan().map;
    let mut rung_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut shed = 0u64;
    let mut migrations = 0u64;
    for round in 0..opts.rounds {
        let db = runtime.merged_db()?;
        let batch: Vec<UserUpdate> = random_moves(
            &db,
            &map,
            0.2,
            (map.x1 - map.x0) as f64 / 8.0,
            derive_seed(opts.seed, round),
        )
        .into_iter()
        .map(UserUpdate::Move)
        .collect();
        let pumped = runtime.pump(&batch)?;
        migrations += pumped.migrations;
        let users: Vec<UserId> = db.users().collect();
        for i in 0..opts.requests.min(users.len()) {
            let pick = derive_seed(opts.seed, round * 1009 + i as u64) as usize % users.len();
            let deadline =
                opts.deadline_ms.map(|ms| clock.now() + std::time::Duration::from_millis(ms));
            match runtime.cloak_for(users[pick], deadline) {
                Ok((rung, _)) => *rung_counts.entry(rung.name()).or_insert(0) += 1,
                Err(RuntimeError::Shed { .. }) => shed += 1,
                Err(other) => return Err(other.into()),
            }
        }
        // lbs-lint: allow(location-taint, reason = "batch size and shard counters only; the counters taint through field projection from the pump result but no coordinate is printed")
        writeln!(
            out,
            "round {round}: pumped {} updates ({} staged, {} committed shards), epoch {}",
            batch.len(),
            pumped.staged,
            pumped.committed_shards,
            runtime.epoch()
        )?;
    }
    let drained = runtime.drain()?;
    let stats = runtime.merged_policy().stats();
    writeln!(
        out,
        "served {} requests (rungs: {rung_counts:?}, shed {shed}); drained {drained} \
         shard commits, {migrations} cross-shard migrations; final epoch {}, \
         {} cloak groups, min group {}, aggregate cost {}",
        rung_counts.values().sum::<u64>() + shed,
        runtime.epoch(),
        stats.groups,
        stats.min_group,
        runtime.aggregate_cost()
    )?;
    if let Some(mpath) = opts.metrics_path {
        let json = serde_json::to_string_pretty(&opts.metrics.snapshot())
            .map_err(|e| CliError::Anonymize(format!("metrics serialization: {e}")))?;
        std::fs::write(mpath, json)?;
        writeln!(out, "metrics -> {mpath}")?;
    }
    Ok(())
}

/// `lbs soak`: the deterministic sharded soak — seeded sustained traffic
/// (moving users + cloaked queries per simulated second) through the
/// epoch-pipelined sharded service, with seeded mid-traffic shard
/// crashes. Fails unless recovery happens without a global stall, every
/// served policy survives the PRE-enumerating attacker, and the sharded
/// aggregate cost stays within the paper's divergence bound of the
/// single-shard optimum. Same seed, same report — byte for byte.
///
/// `--tier smoke` (default) is the CI-sized preset; `--tier heavy` is
/// the nightly durability preset (checkpoint every commit, bounded
/// retention, mid-traffic scrub + GC); `--tier full` is the paper-scale
/// run (1.75M users, 8 shards, 50k queries/s — hours of CPU, the source
/// of the updates/sec-vs-shard-count figure in EXPERIMENTS.md).
/// Individual knobs (`--users`, `--shards`, …) override the chosen
/// preset.
fn soak(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut cfg = match args.optional("tier").unwrap_or("smoke") {
        "smoke" => lbs_conformance::SoakConfig::smoke(),
        "heavy" => lbs_conformance::SoakConfig::heavy(),
        "full" => lbs_conformance::SoakConfig::full(),
        other => {
            return Err(CliError::Anonymize(format!(
                "unknown tier {other:?}; use --tier smoke, --tier heavy, or --tier full"
            )))
        }
    };
    cfg.seed = args.parse_or("seed", cfg.seed)?;
    cfg.users = args.parse_or("users", cfg.users)?;
    cfg.shards = args.parse_or("shards", cfg.shards)?;
    cfg.k = args.parse_or("k", cfg.k)?;
    cfg.epochs = args.parse_or("epochs", cfg.epochs)?;
    cfg.queries_per_epoch = args.parse_or("queries-per-epoch", cfg.queries_per_epoch)?;
    let scratch = match args.optional("scratch") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("lbs-soak-{}", std::process::id())),
    };
    std::fs::create_dir_all(&scratch)?;
    let report =
        lbs_conformance::soak(&scratch, &cfg).map_err(|e| CliError::Conformance(vec![e]))?;
    write!(out, "{report}")?;
    if report.is_clean() {
        writeln!(out, "soak: PASS (replay with --seed {})", cfg.seed)?;
        Ok(())
    } else {
        Err(CliError::Conformance(report.failures.clone()))
    }
}

/// `lbs recover`: crash recovery of a service directory — newest valid
/// checkpoint plus a WAL replay — followed by a policy-aware audit of the
/// recovered committed policy.
fn recover(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = std::path::PathBuf::from(args.required("dir")?);
    let metrics = std::sync::Arc::new(Metrics::new());
    let cfg = RuntimeConfig::new(2, Rect::square(0, 0, 2)); // overridden by the checkpoint
    let (runtime, report) =
        RuntimeBuilder::new(cfg).metrics(std::sync::Arc::clone(&metrics)).recover(&dir)?;
    writeln!(
        out,
        "recovered {}: checkpoint seq {}, {} WAL records replayed in {} ms",
        dir.display(),
        report.checkpoint_seq,
        report.replayed,
        report.replay_time.as_millis()
    )?;
    let stats = runtime.committed_policy().stats();
    writeln!(
        out,
        "state: epoch {}, durable seq {}, {} users, {} cloak groups, min group {}",
        runtime.epoch(),
        runtime.durable_seq(),
        runtime.db().len(),
        stats.groups,
        stats.min_group
    )?;
    match verify_policy_aware(runtime.committed_policy(), runtime.db(), runtime.k()) {
        Ok(()) => writeln!(
            out,
            "OK: recovered policy provides sender {}-anonymity against policy-aware attackers",
            runtime.k()
        )?,
        Err(violations) => {
            return Err(CliError::Conformance(vec![format!(
                "recovered policy FAILS verification: {} violations",
                violations.len()
            )]))
        }
    }
    Ok(())
}

/// `lbs recovery-smoke`: the durability sweep sized for CI — named crash
/// plans, seeded disk faults, on-disk rot with scrub/GC self-healing, and
/// per-shard victims, every recovery bit-identical to the never-crashed
/// run or a loud typed error — plus the degradation-ladder attacker
/// audit. Red output carries the seed to replay.
fn recovery_smoke(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let defaults = lbs_conformance::DurabilityConfig::default();
    let cfg = lbs_conformance::DurabilityConfig {
        seed: args.parse_or("seed", defaults.seed)?,
        users: args.parse_or("users", defaults.users)?,
        k: args.parse_or("k", defaults.k)?,
        // 10 records at the default cadence place exactly 50 named points.
        rounds: args.parse_or("rounds", 10)?,
        checkpoint_every: args.parse_or("checkpoint-every", defaults.checkpoint_every)?,
        fault_points: args.parse_or("fault-points", 20)?,
        rot_points: args.parse_or("rot-points", 10)?,
        shard_points: args.parse_or("shard-points", 16)?,
    };
    let scratch = match args.optional("scratch") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("lbs-recovery-smoke-{}", std::process::id())),
    };
    std::fs::create_dir_all(&scratch)?;

    let report = lbs_conformance::durability_sweep(&scratch, &cfg)
        .map_err(|e| CliError::Conformance(vec![e]))?;
    write!(out, "{report}")?;
    let mut problems = report.failures.clone();
    let named = report.named_points();
    if named < 50 {
        problems.push(format!("only {named} named crash points swept (need >= 50)"));
    }
    if cfg.shard_points > 0 && report.shards < 2 {
        problems.push("sharded phase collapsed to one shard".to_string());
    }
    for ladder_seed in [3u64, 11, 42] {
        match lbs_conformance::audit_degradation_ladder(ladder_seed, 56, 4) {
            Ok(ladder) => writeln!(
                out,
                "degradation ladder (seed {ladder_seed}): {} committed, {} coarsened, \
                 {} shed — all rungs pass the policy-aware attacker",
                ladder.committed, ladder.coarsened, ladder.shed
            )?,
            Err(e) => problems.push(format!("ladder seed {ladder_seed}: {e}")),
        }
    }
    if problems.is_empty() {
        writeln!(out, "recovery-smoke: PASS (replay with --seed {})", cfg.seed)?;
        Ok(())
    } else {
        Err(CliError::Conformance(problems))
    }
}

/// `lbs scrub`: offline integrity pass over a service directory —
/// re-verifies every checkpoint generation's CRC, quarantines corrupt
/// ones as `*.quarantined`, and reports whether the WAL carries a torn
/// tail. Handles both single-runtime directories and sharded layouts
/// (`shard-NNN/` subdirectories). The only mutation is renaming corrupt
/// generations aside — exactly the files recovery would skip anyway, so
/// scrubbing never loses recoverable state.
fn scrub(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = std::path::PathBuf::from(args.required("dir")?);
    let storage = lbs_runtime::real_fs();

    // A sharded service keeps one subdirectory per shard.
    let mut targets: Vec<(String, std::path::PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        let mut shards: Vec<std::path::PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("shard-"))
            })
            .collect();
        shards.sort();
        for p in shards {
            let label = p.file_name().and_then(|n| n.to_str()).unwrap_or("shard").to_string();
            targets.push((label, p));
        }
    }
    if targets.is_empty() {
        targets.push(("service".to_string(), dir.clone()));
    }

    let mut quarantined_total = 0usize;
    let mut torn = false;
    for (label, path) in &targets {
        let report = lbs_runtime::scrub_dir(storage.as_ref(), path)?;
        let newest = match report.newest_verified_seq {
            Some(seq) => format!("newest verified seq {seq}"),
            None => "no verified checkpoint".to_string(),
        };
        writeln!(
            out,
            "{label}: {} generations verified, {} quarantined, {} WAL records, {newest}{}",
            report.checked,
            report.quarantined.len(),
            report.wal_records,
            if report.wal_tail_torn { ", torn WAL tail (next open truncates it)" } else { "" },
        )?;
        for parked in &report.quarantined {
            writeln!(out, "  quarantined {}", parked.display())?;
        }
        quarantined_total += report.quarantined.len();
        torn |= report.wal_tail_torn;
    }
    if quarantined_total == 0 && !torn {
        writeln!(out, "scrub: clean")?;
    } else {
        writeln!(
            out,
            "scrub: healed — {quarantined_total} generation(s) quarantined{}",
            if torn { ", torn WAL tail found" } else { "" }
        )?;
    }
    Ok(())
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor holding both `Cargo.toml` and `crates/`).
fn find_workspace_root() -> Result<std::path::PathBuf, CliError> {
    let mut dir = std::env::current_dir()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(CliError::Lint(
                "no workspace root found above the current directory; pass --root".to_string(),
            ));
        }
    }
}

/// Test helper: run a command line against temp files.
#[cfg(test)]
fn run_line(line: &[&str]) -> Result<String, CliError> {
    let args = Args::parse(line.iter().copied().map(String::from))?;
    let mut out = Vec::new();
    run(&args, &mut out)?;
    Ok(String::from_utf8(out).expect("utf8 output"))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("lbs-cli-test-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn full_workflow_gen_anonymize_audit_lookup() {
        let dir = TempDir::new("workflow");
        let snap = dir.path("snapshot.bin");
        let pol = dir.path("policy.bin");

        let msg = run_line(&["gen", "--users", "2000", "--seed", "3", "--out", &snap]).unwrap();
        assert!(msg.contains("2000 users"), "{msg}");

        let msg =
            run_line(&["anonymize", "--snapshot", &snap, "--k", "10", "--out", &pol]).unwrap();
        assert!(msg.contains("k=10"), "{msg}");

        let msg = run_line(&["audit", "--snapshot", &snap, "--policy", &pol, "--k", "10"]).unwrap();
        assert!(msg.starts_with("OK"), "{msg}");

        // Auditing at a stricter level than the policy provides must fail.
        let msg =
            run_line(&["audit", "--snapshot", &snap, "--policy", &pol, "--k", "200"]).unwrap();
        assert!(msg.starts_with("FAIL"), "{msg}");

        let msg = run_line(&["lookup", "--policy", &pol, "--user", "0"]).unwrap();
        assert!(msg.contains("u0 ->"), "{msg}");
        let msg = run_line(&["lookup", "--policy", &pol, "--user", "999999"]).unwrap();
        assert!(msg.contains("no cloak"), "{msg}");
    }

    #[test]
    fn stats_and_compare_render() {
        let dir = TempDir::new("stats");
        let snap = dir.path("snapshot.bin");
        run_line(&["gen", "--users", "1500", "--out", &snap]).unwrap();
        let msg = run_line(&["stats", "--snapshot", &snap, "--k", "10"]).unwrap();
        assert!(msg.contains("nodes="), "{msg}");
        let msg = run_line(&["compare", "--snapshot", &snap, "--k", "10"]).unwrap();
        assert!(msg.contains("policy-aware"), "{msg}");
        assert!(msg.contains("casper"), "{msg}");
    }

    #[test]
    fn parallel_anonymize_matches_verifier() {
        let dir = TempDir::new("parallel");
        let snap = dir.path("snapshot.bin");
        let pol = dir.path("policy.bin");
        run_line(&["gen", "--users", "3000", "--out", &snap]).unwrap();
        run_line(&["anonymize", "--snapshot", &snap, "--k", "15", "--servers", "8", "--out", &pol])
            .unwrap();
        let msg = run_line(&["audit", "--snapshot", &snap, "--policy", &pol, "--k", "15"]).unwrap();
        assert!(msg.starts_with("OK"), "{msg}");
    }

    #[test]
    fn metrics_json_flag_writes_a_parseable_snapshot() {
        let dir = TempDir::new("metrics");
        let snap = dir.path("snapshot.bin");
        let pol = dir.path("policy.bin");
        let mjson = dir.path("metrics.json");
        run_line(&["gen", "--users", "2000", "--out", &snap]).unwrap();

        // Parallel path: engine counters and stage timers must be populated.
        let msg = run_line(&[
            "anonymize",
            "--snapshot",
            &snap,
            "--k",
            "10",
            "--servers",
            "4",
            "--workers",
            "2",
            "--metrics-json",
            &mjson,
            "--out",
            &pol,
        ])
        .unwrap();
        assert!(msg.contains("metrics ->"), "{msg}");
        let raw = std::fs::read_to_string(&mjson).unwrap();
        let snapshot: lbs_metrics::MetricsSnapshot = serde_json::from_str(&raw).unwrap();
        assert_eq!(snapshot.counter(lbs_metrics::Counter::UsersAnonymized), 2000);
        assert!(snapshot.counter(lbs_metrics::Counter::TasksInjected) >= 1);
        assert_eq!(
            snapshot.counter(lbs_metrics::Counter::TasksInjected),
            snapshot.counter(lbs_metrics::Counter::TasksExecuted)
        );
        assert!(snapshot.stage(lbs_metrics::Stage::Dp).calls >= 1);
        assert_eq!(snapshot.stage(lbs_metrics::Stage::Partition).calls, 1);

        // Single-server path records the build stages too.
        let msg = run_line(&[
            "anonymize",
            "--snapshot",
            &snap,
            "--k",
            "10",
            "--metrics-json",
            &mjson,
            "--out",
            &pol,
        ])
        .unwrap();
        assert!(msg.contains("metrics ->"), "{msg}");
        let raw = std::fs::read_to_string(&mjson).unwrap();
        let snapshot: lbs_metrics::MetricsSnapshot = serde_json::from_str(&raw).unwrap();
        assert_eq!(snapshot.counter(lbs_metrics::Counter::UsersAnonymized), 2000);
        assert_eq!(snapshot.stage(lbs_metrics::Stage::TreeBuild).calls, 1);
    }

    #[test]
    fn conformance_bless_writes_the_corpus_and_validates_flags() {
        let dir = TempDir::new("golden");
        let gdir = dir.path("golden");
        let msg = run_line(&["conformance", "--bless", "true", "--golden", &gdir, "--seed", "7"])
            .unwrap();
        assert!(
            msg.contains("blessed 12 policy, 3 sharded, 12 partitioned, 9 work records"),
            "{msg}"
        );
        assert!(msg.contains("seed 7"), "{msg}");
        let mut stems: Vec<String> = std::fs::read_dir(&gdir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        assert_eq!(stems.len(), 36);
        assert!(stems.contains(&"uniform-k2-binary.json".to_string()), "{stems:?}");
        assert!(stems.contains(&"sharded_8.json".to_string()), "{stems:?}");
        assert!(stems.contains(&"partitioned_skewed-k50-s64.json".to_string()), "{stems:?}");
        assert!(stems.contains(&"work_churn-deadline.json".to_string()), "{stems:?}");

        // Blessing without a target directory is a usage error.
        let err = run_line(&["conformance", "--bless", "true"]).unwrap_err();
        assert!(matches!(err, CliError::Anonymize(_)), "{err:?}");
        // Unknown tiers are rejected up front.
        let err = run_line(&["conformance", "--tier", "bogus"]).unwrap_err();
        assert!(err.to_string().contains("smoke or --tier soak"), "{err}");
    }

    #[test]
    fn serve_recover_round_trip_with_metrics() {
        let dir = TempDir::new("serve");
        let snap = dir.path("snapshot.bin");
        let service = dir.path("service");
        let mjson = dir.path("metrics.json");
        run_line(&["gen", "--users", "300", "--seed", "5", "--out", &snap]).unwrap();

        // First run creates the directory and serves fresh cloaks.
        let msg = run_line(&[
            "serve",
            "--dir",
            &service,
            "--snapshot",
            &snap,
            "--k",
            "8",
            "--rounds",
            "3",
            "--metrics-json",
            &mjson,
        ])
        .unwrap();
        assert!(msg.contains("created"), "{msg}");
        assert!(msg.contains("\"fresh\""), "{msg}");
        let raw = std::fs::read_to_string(&mjson).unwrap();
        let snapshot: lbs_metrics::MetricsSnapshot = serde_json::from_str(&raw).unwrap();
        assert!(snapshot.counter(lbs_metrics::Counter::WalAppends) >= 3);
        assert!(snapshot.counter(lbs_metrics::Counter::CheckpointsWritten) >= 2);
        assert!(raw.contains("requests_shed"), "new counters must be in the JSON: {raw}");
        assert!(raw.contains("recovery_replay_ms"), "{raw}");

        // A zero deadline forces the ladder: requests degrade, never block.
        let msg = run_line(&[
            "serve",
            "--dir",
            &service,
            "--rounds",
            "2",
            "--deadline-ms",
            "0",
            "--metrics-json",
            &mjson,
        ])
        .unwrap();
        assert!(msg.contains("recovered"), "{msg}");
        assert!(
            msg.contains("committed") || msg.contains("coarsened") || msg.contains("shed 0"),
            "{msg}"
        );
        let raw = std::fs::read_to_string(&mjson).unwrap();
        let snapshot: lbs_metrics::MetricsSnapshot = serde_json::from_str(&raw).unwrap();
        assert!(
            snapshot.counter(lbs_metrics::Counter::DegradedCommitted)
                + snapshot.counter(lbs_metrics::Counter::DegradedCoarsened)
                + snapshot.counter(lbs_metrics::Counter::RequestsShed)
                >= 1,
            "zero deadline must exercise the degradation ladder: {raw}"
        );

        // Recovery after the simulated kill audits the recovered policy.
        let msg = run_line(&["recover", "--dir", &service]).unwrap();
        assert!(msg.contains("OK: recovered policy"), "{msg}");
        assert!(msg.contains("checkpoint seq"), "{msg}");

        // Recovering a directory with no state is a typed error.
        let empty = dir.path("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run_line(&["recover", "--dir", &empty]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(RuntimeError::NoState(_))), "{err:?}");
    }

    #[test]
    fn serve_sharded_round_trip() {
        let dir = TempDir::new("serve-sharded");
        let snap = dir.path("snapshot.bin");
        let service = dir.path("sharded-service");
        run_line(&["gen", "--users", "400", "--seed", "9", "--out", &snap]).unwrap();

        let msg = run_line(&[
            "serve",
            "--dir",
            &service,
            "--snapshot",
            &snap,
            "--k",
            "4",
            "--shards",
            "2",
            "--rounds",
            "3",
        ])
        .unwrap();
        assert!(msg.contains("2 shards"), "{msg}");
        assert!(msg.contains("pumped"), "{msg}");
        assert!(msg.contains("aggregate cost"), "{msg}");

        // Re-serving the same directory takes the recovery path and keeps
        // the same shard layout.
        let msg =
            run_line(&["serve", "--dir", &service, "--shards", "2", "--rounds", "2"]).unwrap();
        assert!(msg.contains("recovered"), "{msg}");
        assert!(msg.contains("2 shards"), "{msg}");
    }

    #[test]
    fn soak_command_runs_the_smoke_preset() {
        let dir = TempDir::new("soak");
        let scratch = dir.path("scratch");
        let msg = run_line(&[
            "soak",
            "--scratch",
            &scratch,
            "--users",
            "400",
            "--epochs",
            "8",
            "--queries-per-epoch",
            "24",
        ])
        .unwrap();
        assert!(msg.contains("soak: PASS"), "{msg}");
        assert!(msg.contains("breaches"), "{msg}");
    }

    #[test]
    fn soak_tier_selects_a_preset_and_rejects_unknown_names() {
        let err = run_line(&["soak", "--tier", "nightly"]).unwrap_err();
        assert!(err.to_string().contains("smoke, --tier heavy, or --tier full"), "{err}");

        // `--tier full` selects the paper-scale preset; shrink it back
        // down with explicit knobs so the test stays CI-sized (shards and
        // epochs must stay large enough for the preset's crash schedule),
        // and check the preset's seed survives (proof the full config was
        // chosen).
        let dir = TempDir::new("soak-tier");
        let scratch = dir.path("scratch");
        let full_seed = lbs_conformance::SoakConfig::full().seed;
        let msg = run_line(&[
            "soak",
            "--tier",
            "full",
            "--scratch",
            &scratch,
            "--users",
            "1600",
            "--shards",
            "6",
            "--k",
            "4",
            "--epochs",
            "16",
            "--queries-per-epoch",
            "24",
        ])
        .unwrap();
        assert!(msg.contains("soak: PASS"), "{msg}");
        assert!(msg.contains(&format!("--seed {full_seed}")), "{msg}");
    }

    #[test]
    fn soak_tier_heavy_runs_the_self_healing_cadence() {
        // The heavy preset shrunk to CI size with explicit knobs; the
        // preset's seed in the replay hint proves heavy was selected, and
        // the self-healing line proves scrub + bounded-retention GC ran
        // mid-traffic.
        let dir = TempDir::new("soak-heavy");
        let scratch = dir.path("scratch");
        let heavy_seed = lbs_conformance::SoakConfig::heavy().seed;
        let msg = run_line(&[
            "soak",
            "--tier",
            "heavy",
            "--scratch",
            &scratch,
            "--users",
            "800",
            "--k",
            "4",
            "--epochs",
            "14",
            "--queries-per-epoch",
            "16",
        ])
        .unwrap();
        assert!(msg.contains("soak: PASS"), "{msg}");
        assert!(msg.contains("self-healing"), "{msg}");
        assert!(msg.contains(&format!("--seed {heavy_seed}")), "{msg}");
    }

    #[test]
    fn scrub_command_reports_clean_then_quarantines_rotted_generations() {
        let dir = TempDir::new("scrub");
        let snap = dir.path("snapshot.bin");
        let service = dir.path("service");
        run_line(&["gen", "--users", "400", "--seed", "9", "--out", &snap]).unwrap();
        run_line(&[
            "serve",
            "--dir",
            &service,
            "--snapshot",
            &snap,
            "--k",
            "4",
            "--shards",
            "2",
            "--rounds",
            "3",
        ])
        .unwrap();

        let msg = run_line(&["scrub", "--dir", &service]).unwrap();
        assert!(msg.contains("scrub: clean"), "{msg}");
        assert!(msg.contains("shard-000"), "{msg}");

        // Flip one byte in the middle of a shard's newest checkpoint: the
        // next scrub must quarantine exactly that generation and still
        // leave a verified one behind.
        let shard_dir = std::path::Path::new(&service).join("shard-000");
        let mut gens: Vec<std::path::PathBuf> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("checkpoint-") && !n.ends_with(".quarantined"))
            })
            .collect();
        gens.sort();
        let victim = gens.last().expect("serve must leave a checkpoint").clone();
        let mut raw = std::fs::read(&victim).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        std::fs::write(&victim, &raw).unwrap();

        let msg = run_line(&["scrub", "--dir", &service]).unwrap();
        assert!(msg.contains("scrub: healed"), "{msg}");
        assert!(msg.contains("1 generation(s) quarantined"), "{msg}");
        assert!(msg.contains(".quarantined"), "{msg}");

        // Healing is idempotent: a re-scrub of the healed tree is clean.
        let msg = run_line(&["scrub", "--dir", &service]).unwrap();
        assert!(msg.contains("scrub: clean"), "{msg}");
    }

    #[test]
    fn recovery_smoke_runs_a_reduced_sweep() {
        let dir = TempDir::new("rsmoke");
        let scratch = dir.path("scratch");
        // Fewer users and points keep the test fast; the default history
        // length is kept so the >= 50 named-point floor still applies.
        let msg = run_line(&[
            "recovery-smoke",
            "--users",
            "32",
            "--fault-points",
            "3",
            "--rot-points",
            "5",
            "--shard-points",
            "8",
            "--scratch",
            &scratch,
        ])
        .unwrap();
        assert!(msg.contains("durability sweep"), "{msg}");
        assert!(msg.contains("sharded/wal-tear"), "{msg}");
        assert!(msg.contains("degradation ladder"), "{msg}");
        assert!(msg.contains("recovery-smoke: PASS"), "{msg}");
    }

    #[test]
    fn every_listed_command_dispatches() {
        let names = command_names();
        let hint = CliError::UnknownCommand("transmogrify".into()).to_string();
        for name in &names {
            assert!(command(name).is_some(), "{name} is listed but does not dispatch");
            assert!(hint.contains(name), "{name} missing from the unknown-command hint");
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name} listed twice");
        }
        assert!(names.contains(&"soak") && names.contains(&"scrub"));
        assert!(command("transmogrify").is_none());
    }

    #[test]
    fn helpful_errors_for_bad_input() {
        assert!(matches!(run_line(&["transmogrify"]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(run_line(&["anonymize"]), Err(CliError::Args(_))));
        let err = run_line(&["stats", "--snapshot", "/nonexistent/x.bin"]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        // A snapshot file with garbage content is a codec error.
        let dir = TempDir::new("garbage");
        let bad = dir.path("bad.bin");
        std::fs::write(&bad, b"not a snapshot").unwrap();
        assert!(matches!(run_line(&["stats", "--snapshot", &bad]), Err(CliError::Codec(_))));
    }

    #[test]
    fn anonymize_reports_infeasible_k() {
        let dir = TempDir::new("infeasible");
        let snap = dir.path("snapshot.bin");
        let pol = dir.path("policy.bin");
        run_line(&["gen", "--users", "50", "--out", &snap]).unwrap();
        let err = run_line(&["anonymize", "--snapshot", &snap, "--k", "5000", "--out", &pol])
            .unwrap_err();
        assert!(matches!(err, CliError::Anonymize(_)), "{err:?}");
    }
}
