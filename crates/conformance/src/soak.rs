//! Deterministic sustained-traffic soak of the sharded service.
//!
//! One seeded loop drives a Bay-Area-model population through the
//! sharded runtime: every simulated second (one virtual-clock tick) a
//! batch of random user movements is epoch-pipelined through
//! [`ShardedRuntime::pump`](lbs_runtime::ShardedRuntime::pump) and a wave of cloaked queries is served
//! against per-request deadlines that already expired — exactly the
//! regime where the degradation ladder, not a fresh commit, answers.
//! Seeded per-shard crashes are injected mid-traffic; the soak asserts
//!
//! 1. **No global stall** — while shard *i* is down, queries routed to
//!    every other shard keep being served, and traffic for up shards
//!    keeps committing; only shard *i*'s own senders are refused.
//! 2. **No anonymity breach** — on an audit cadence, every sender is
//!    queried and the union of served cloaks faces the full oracle
//!    stack (`verify_policy_aware` plus the PRE-enumerating attacker)
//!    over the served population.
//! 3. **Bounded divergence** — after a final drain, the sharded
//!    aggregate cloak cost is within the paper's Section V bound
//!    (≤ 1% by default) of the single-shard optimum recomputed over the
//!    same final population, and the merged shard databases are exactly
//!    the mirror the traffic generator maintained.
//!
//! The whole run is a pure function of [`SoakConfig`]: the same config
//! produces a bit-identical [`SoakReport`] fingerprint, so a red soak
//! replays from its printed seed.

use lbs_attack::audit_policy;
use lbs_core::{verify_policy_aware, Anonymizer};
use lbs_geom::Point;
use lbs_metrics::{Counter, Metrics};
use lbs_model::{BulkPolicy, LocationDb, UserId, UserUpdate};
use lbs_runtime::{divergence_pct, ManualClock, Rung, RuntimeError, ShardedBuilder, ShardedConfig};
use lbs_workload::{derive_seed, generate_master, random_moves, BayAreaConfig};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// One seeded mid-traffic shard crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoakCrash {
    /// Epoch (0-based) at whose start the shard's in-memory state is
    /// dropped. Disk (WAL + checkpoints) stays intact, like a process
    /// kill.
    pub epoch: u64,
    /// Which shard dies.
    pub shard: usize,
    /// Epochs the shard stays down before recovery; its senders are
    /// refused and its region receives no traffic meanwhile.
    pub down_for: u64,
}

/// Parameters of one soak run. Everything downstream — population,
/// movement, query waves, crash schedule — derives from `seed`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Master seed.
    pub seed: u64,
    /// Approximate population (rounded by the workload generator).
    pub users: usize,
    /// Shard count requested (the plan may hold fewer).
    pub shards: usize,
    /// Anonymity level.
    pub k: usize,
    /// Simulated seconds (one pump + one query wave each).
    pub epochs: u64,
    /// Fraction of the population moving per epoch (paper Figure 5(b)).
    pub move_fraction: f64,
    /// Maximum per-epoch movement in meters.
    pub max_move_m: f64,
    /// Sampled cloak queries per epoch.
    pub queries_per_epoch: usize,
    /// Crash schedule (validated against `shards` and `epochs`).
    pub crashes: Vec<SoakCrash>,
    /// Full-population attacker audit every this many epochs (0 = only
    /// the final audit).
    pub audit_every: u64,
    /// Virtual milliseconds per epoch tick.
    pub tick_ms: u64,
    /// Maximum tolerated cost divergence from the single-shard optimum,
    /// in percent (the paper's Section V bound is 1%).
    pub divergence_bound_pct: f64,
    /// Per-shard checkpoint cadence (commits per checkpoint). Low values
    /// pile up checkpoint generations, which the heavy tier uses to
    /// exercise retention.
    pub checkpoint_every: u64,
    /// Per-shard bounded retention: keep this many verified checkpoint
    /// generations and GC the rest (`None` keeps every generation).
    pub retain_checkpoints: Option<usize>,
    /// Run a scrub + GC pass across every up shard each this many
    /// epochs (0 = never). On a healthy disk the scrub must quarantine
    /// nothing; anything else is a soak failure.
    pub scrub_every: u64,
}

impl SoakConfig {
    /// CI-sized smoke soak: a few hundred users, 2 shards, one seeded
    /// mid-traffic crash, a handful of simulated seconds.
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            seed: 0x50AC_0001,
            users: 600,
            shards: 2,
            k: 4,
            epochs: 10,
            move_fraction: 0.05,
            max_move_m: 400.0,
            queries_per_epoch: 48,
            crashes: vec![SoakCrash { epoch: 4, shard: 1, down_for: 2 }],
            audit_every: 3,
            tick_ms: 1000,
            divergence_bound_pct: 1.0,
            checkpoint_every: 4,
            retain_checkpoints: None,
            scrub_every: 0,
        }
    }

    /// The nightly heavy tier (the ROADMAP's "multiple checkpoint
    /// generations" soak): a mid-sized population driven long enough
    /// that every shard accumulates several checkpoint generations
    /// (cadence 1) under bounded retention, with a scrub + GC pass
    /// running mid-traffic every few epochs and two mid-run shard
    /// crashes recovering across the pruned lineage. Minutes of CPU —
    /// sized for `scripts/nightly.sh`, not per-commit CI.
    pub fn heavy() -> SoakConfig {
        SoakConfig {
            seed: 0x50AC_4EA7,
            users: 20_000,
            shards: 4,
            k: 8,
            epochs: 18,
            move_fraction: 0.04,
            max_move_m: 300.0,
            queries_per_epoch: 1_500,
            crashes: vec![
                SoakCrash { epoch: 5, shard: 1, down_for: 2 },
                SoakCrash { epoch: 11, shard: 3, down_for: 3 },
            ],
            audit_every: 6,
            tick_ms: 1000,
            divergence_bound_pct: 1.0,
            checkpoint_every: 1,
            retain_checkpoints: Some(3),
            scrub_every: 4,
        }
    }

    /// The paper-scale soak: the full ~1.75M-user Bay Area master set,
    /// tens of thousands of moving users and queries per simulated
    /// second, crashes on several shards. Hours of CPU — not for CI.
    pub fn full() -> SoakConfig {
        SoakConfig {
            seed: 0x50AC_FFFF,
            users: 1_750_000,
            shards: 8,
            k: 20,
            epochs: 30,
            move_fraction: 0.02,
            max_move_m: 200.0,
            queries_per_epoch: 50_000,
            crashes: vec![
                SoakCrash { epoch: 7, shard: 2, down_for: 3 },
                SoakCrash { epoch: 15, shard: 5, down_for: 2 },
            ],
            audit_every: 10,
            tick_ms: 1000,
            divergence_bound_pct: 1.0,
            checkpoint_every: 4,
            retain_checkpoints: None,
            scrub_every: 0,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.users == 0 || self.epochs == 0 || self.shards == 0 || self.k == 0 {
            return Err("users, epochs, shards, and k must all be nonzero".into());
        }
        if !(0.0..=1.0).contains(&self.move_fraction) {
            return Err(format!("move_fraction {} outside [0, 1]", self.move_fraction));
        }
        if self.tick_ms == 0 {
            return Err("tick_ms must be nonzero (the clock must advance)".into());
        }
        for c in &self.crashes {
            if c.shard >= self.shards {
                return Err(format!("crash shard {} out of range 0..{}", c.shard, self.shards));
            }
            if c.down_for == 0 {
                return Err(format!("crash at epoch {} has down_for 0", c.epoch));
            }
            if c.epoch >= self.epochs {
                return Err(format!(
                    "crash epoch {} beyond the run's {} epochs",
                    c.epoch, self.epochs
                ));
            }
        }
        Ok(())
    }
}

/// What one soak run did and found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoakReport {
    /// The run's configuration.
    pub config: SoakConfig,
    /// Shards the plan actually produced.
    pub shards: usize,
    /// Final population size.
    pub population: usize,
    /// Movement updates pumped (after per-user dedup and down-shard
    /// withholding).
    pub updates_applied: usize,
    /// Cross-shard migrations performed.
    pub migrations: u64,
    /// Sampled queries answered, by rung.
    pub served_fresh: usize,
    /// Queries answered from the last committed policy.
    pub served_committed: usize,
    /// Queries answered with a coarsened ancestor cloak.
    pub served_coarsened: usize,
    /// Queries shed by the ladder's bottom rung.
    pub shed: usize,
    /// Queries served on *other* shards while at least one shard was
    /// down — the no-global-stall witness.
    pub served_during_crash: usize,
    /// Queries refused because their own shard was down.
    pub unavailable_during_crash: usize,
    /// Crashes injected.
    pub crashes_injected: usize,
    /// Shard recoveries performed (every crash must recover).
    pub recoveries: usize,
    /// WAL records replayed across all recoveries.
    pub replayed_total: usize,
    /// Mid-traffic scrub passes run across up shards (heavy tier).
    pub scrubs: usize,
    /// Total WAL records pruned by retention GC — both the automatic
    /// post-checkpoint passes the runtime runs whenever retention is
    /// bounded and the explicit mid-traffic passes at the scrub cadence.
    pub wal_records_pruned: u64,
    /// Checkpoint generations removed by the *explicit* mid-traffic GC
    /// passes. Usually 0 when retention is bounded: the automatic
    /// post-checkpoint GC keeps the lineage trimmed continuously, so the
    /// explicit pass finds nothing left to remove. The retention bound
    /// itself is asserted on disk at every scrub cadence instead.
    pub checkpoints_removed: usize,
    /// Full-population attacker audits run.
    pub audits: usize,
    /// Anonymity breaches found by any audit (must be 0).
    pub breaches: usize,
    /// Final sharded aggregate cloak cost.
    pub sharded_cost: u128,
    /// Single-shard optimal cost over the same final population.
    pub single_cost: u128,
    /// `100 · (sharded − single) / single`.
    pub divergence_pct: f64,
    /// FNV-1a digest of the run's observable outcome; identical for
    /// identical configs.
    pub fingerprint: u64,
    /// Invariant violations (empty on a clean run).
    pub failures: Vec<String>,
}

impl SoakReport {
    /// Whether every soak invariant held.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for SoakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "soak: seed {:#x}, {} users on {} shards, {} epochs — {}",
            self.config.seed,
            self.population,
            self.shards,
            self.config.epochs,
            if self.is_clean() { "clean" } else { "FAILURES" },
        )?;
        writeln!(
            f,
            "  traffic: {} updates ({} migrations), queries fresh {} / committed {} / \
             coarsened {} / shed {}",
            self.updates_applied,
            self.migrations,
            self.served_fresh,
            self.served_committed,
            self.served_coarsened,
            self.shed,
        )?;
        writeln!(
            f,
            "  crashes: {} injected, {} recovered ({} records replayed); during outages \
             {} served elsewhere, {} refused locally",
            self.crashes_injected,
            self.recoveries,
            self.replayed_total,
            self.served_during_crash,
            self.unavailable_during_crash,
        )?;
        if self.scrubs > 0 || self.wal_records_pruned > 0 {
            writeln!(
                f,
                "  self-healing: {} scrub passes (all clean), retention GC pruned \
                 {} WAL records ({} generations via explicit passes)",
                self.scrubs, self.wal_records_pruned, self.checkpoints_removed,
            )?;
        }
        writeln!(
            f,
            "  oracle: {} audits, {} breaches; cost {} vs single-shard {} \
             ({:+.4}% divergence, bound {:.2}%)",
            self.audits,
            self.breaches,
            self.sharded_cost,
            self.single_cost,
            self.divergence_pct,
            self.config.divergence_bound_pct,
        )?;
        writeln!(f, "  fingerprint: {:#018x}", self.fingerprint)?;
        for failure in &self.failures {
            writeln!(f, "  FAIL {failure}")?;
        }
        Ok(())
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs one soak under `scratch` (a disposable directory; the sharded
/// service state it creates is removed before returning).
///
/// # Errors
/// A message when the harness itself cannot run (invalid config, the
/// service failing to build). Invariant violations observed *during* a
/// run land in [`SoakReport::failures`] instead.
// lbs-lint: allow-item(location-taint, reason = "the failure log records counters, user ids, and runtime error strings; error strings are coordinate-free by construction (this lint enforces that at every construction site) and the report is an operator artifact inside the trust boundary")
pub fn soak(scratch: &Path, cfg: &SoakConfig) -> Result<SoakReport, String> {
    cfg.validate()?;
    let dir = scratch.join(format!("soak-{:016x}", cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);

    // Population: the paper's Bay Area model, scaled to the configured
    // size, its master seed derived from the soak seed (stream 1).
    let mut workload = BayAreaConfig::scaled_to(cfg.users);
    workload.seed = derive_seed(cfg.seed, 1);
    let map = workload.map();
    let db0 = generate_master(&workload);
    let mut mirror = db0.clone();

    let clock = Arc::new(ManualClock::new());
    let metrics = Arc::new(Metrics::new());
    let mut shard_cfg = ShardedConfig::new(cfg.k, map, cfg.shards);
    shard_cfg.checkpoint_every = cfg.checkpoint_every;
    shard_cfg.retain_checkpoints = cfg.retain_checkpoints;
    let mut rt = ShardedBuilder::new(shard_cfg)
        .clock(Arc::clone(&clock) as Arc<dyn lbs_runtime::Clock>)
        .metrics(Arc::clone(&metrics))
        .create(&dir, &db0)
        .map_err(|e| format!("create sharded service: {e}"))?;

    let mut report = SoakReport {
        config: cfg.clone(),
        shards: rt.shard_count(),
        population: db0.len(),
        updates_applied: 0,
        migrations: 0,
        served_fresh: 0,
        served_committed: 0,
        served_coarsened: 0,
        shed: 0,
        served_during_crash: 0,
        unavailable_during_crash: 0,
        crashes_injected: 0,
        recoveries: 0,
        replayed_total: 0,
        scrubs: 0,
        wal_records_pruned: 0,
        checkpoints_removed: 0,
        audits: 0,
        breaches: 0,
        sharded_cost: 0,
        single_cost: 0,
        divergence_pct: 0.0,
        fingerprint: 0xcbf2_9ce4_8422_2325,
        failures: Vec::new(),
    };

    // Recovery schedule: epoch → shards coming back up at its start.
    let mut recover_at: Vec<(u64, usize)> =
        cfg.crashes.iter().map(|c| (c.epoch + c.down_for, c.shard)).collect();
    recover_at.sort_unstable();

    let users_sorted: Vec<UserId> = {
        let mut v: Vec<UserId> = db0.users().collect();
        v.sort_unstable();
        v
    };

    for epoch in 0..cfg.epochs {
        clock.advance(Duration::from_millis(cfg.tick_ms));

        // Recoveries due at this epoch's start (also past-due ones, so a
        // crash schedule reaching beyond the loop still settles below).
        for &(when, shard) in &recover_at {
            if when == epoch {
                match rt.recover_shard(shard) {
                    Ok(rec) => {
                        report.recoveries += 1;
                        report.replayed_total += rec.replayed;
                    }
                    Err(e) => report
                        .failures
                        .push(format!("epoch {epoch}: recovering shard {shard} failed: {e}")),
                }
            }
        }

        // Crashes scheduled mid-traffic at this epoch.
        for c in &cfg.crashes {
            if c.epoch == epoch {
                match rt.crash_shard(c.shard) {
                    Ok(()) => report.crashes_injected += 1,
                    Err(e) => report
                        .failures
                        .push(format!("epoch {epoch}: crashing shard {} failed: {e}", c.shard)),
                }
            }
        }
        let any_down = !rt.all_up();

        // Movement wave. Senders on a down shard (or headed into its
        // region) hold still this epoch — their updates are withheld
        // from both the service and the mirror, so parity is exact and
        // no other shard's traffic stalls.
        let moves = random_moves(
            &mirror,
            &map,
            cfg.move_fraction,
            cfg.max_move_m,
            derive_seed(cfg.seed, 100 + epoch),
        );
        let batch: Vec<UserUpdate> = moves
            .into_iter()
            .filter(|m| {
                let src_up = rt.shard_of(m.user).map(|s| rt.shard(s).is_some());
                let dst_up = rt.plan().route_point(&m.to).map(|s| rt.shard(s).is_some());
                src_up == Some(true) && dst_up == Some(true)
            })
            .map(UserUpdate::Move)
            .collect();
        mirror.apply_updates(&batch).map_err(|e| format!("epoch {epoch}: mirror: {e:?}"))?;
        match rt.pump(&batch) {
            Ok(pump) => {
                report.updates_applied += batch.len();
                report.migrations += pump.migrations;
            }
            Err(e) => report.failures.push(format!("epoch {epoch}: pump: {e}")),
        }

        // Query wave: sampled senders, each under an already-expired
        // deadline so the answer comes from the ladder, never from an
        // inline commit (the pipeline stays one epoch deep).
        let expired = Some(Duration::from_millis(1));
        for j in 0..cfg.queries_per_epoch as u64 {
            let pick = derive_seed(cfg.seed, 1_000_000 + epoch * 131_071 + j) as usize
                % users_sorted.len();
            let user = users_sorted[pick];
            match rt.cloak_for(user, expired) {
                Ok((rung, region)) => {
                    match rung {
                        Rung::Fresh => report.served_fresh += 1,
                        Rung::Committed => report.served_committed += 1,
                        Rung::Coarsened => report.served_coarsened += 1,
                    }
                    if any_down {
                        report.served_during_crash += 1;
                    }
                    if let Some(p) = mirror.location(user) {
                        if !region.contains(&p) {
                            report.failures.push(format!(
                                "epoch {epoch}: {user:?} served a cloak not masking its location"
                            ));
                        }
                    }
                }
                Err(RuntimeError::Shed { .. }) => report.shed += 1,
                Err(RuntimeError::ShardDown { .. }) => {
                    report.unavailable_during_crash += 1;
                    if !any_down {
                        report
                            .failures
                            .push(format!("epoch {epoch}: ShardDown with every shard up"));
                    }
                }
                Err(RuntimeError::UnknownUser(u)) => {
                    // Mid-migration senders (delete durable, insert not
                    // yet routed) are transiently unknown; anyone else is
                    // a routing bug.
                    if mirror.location(u).is_none() {
                        report.failures.push(format!("epoch {epoch}: {u:?} vanished"));
                    }
                }
                Err(e) => report.failures.push(format!("epoch {epoch}: query {user:?}: {e}")),
            }
        }

        // Heavy-tier self-healing cadence: scrub every up shard (a
        // healthy disk must quarantine nothing), then run retention GC.
        if cfg.scrub_every > 0 && (epoch + 1).is_multiple_of(cfg.scrub_every) {
            match rt.scrub() {
                Ok(reports) => {
                    for (shard, scrub) in reports.iter().enumerate() {
                        let Some(scrub) = scrub else { continue };
                        report.scrubs += 1;
                        if !scrub.quarantined.is_empty() {
                            report.failures.push(format!(
                                "epoch {epoch}: scrub quarantined {} files on shard {shard} \
                                 of a healthy disk",
                                scrub.quarantined.len()
                            ));
                        }
                    }
                }
                Err(e) => report.failures.push(format!("epoch {epoch}: scrub: {e}")),
            }
            match rt.gc() {
                Ok(reports) => {
                    for gc in reports.into_iter().flatten() {
                        report.checkpoints_removed += gc.checkpoints_removed.len();
                    }
                }
                Err(e) => report.failures.push(format!("epoch {epoch}: gc: {e}")),
            }
            // The retention bound must hold on disk, not just in a GC
            // report: count the surviving generations of every up shard.
            if let Some(retain) = cfg.retain_checkpoints {
                for shard in 0..rt.shard_count() {
                    if rt.shard(shard).is_none() {
                        continue;
                    }
                    match lbs_runtime::list_checkpoints(&rt.shard_dir(shard)) {
                        Ok(gens) if gens.len() > retain.max(1) => {
                            report.failures.push(format!(
                                "epoch {epoch}: shard {shard} holds {} checkpoint \
                                 generations, retention bound is {retain}",
                                gens.len()
                            ));
                        }
                        Ok(_) => {}
                        Err(e) => report
                            .failures
                            .push(format!("epoch {epoch}: list shard {shard} generations: {e}")),
                    }
                }
            }
        }

        // Attacker audit on the configured cadence: query *every* sender
        // and face the union of served cloaks with the oracle stack.
        if cfg.audit_every > 0 && (epoch + 1).is_multiple_of(cfg.audit_every) {
            audit_served(&mut rt, &mirror, &users_sorted, cfg.k, epoch, &mut report);
        }
    }

    // Settle: recover anything still down (schedules may extend past the
    // last epoch), drain the pipeline, and run the final audit.
    for shard in 0..rt.shard_count() {
        if rt.shard(shard).is_none() {
            match rt.recover_shard(shard) {
                Ok(rec) => {
                    report.recoveries += 1;
                    report.replayed_total += rec.replayed;
                }
                Err(e) => report.failures.push(format!("final recovery of shard {shard}: {e}")),
            }
        }
    }
    if let Err(e) = rt.drain() {
        report.failures.push(format!("final drain: {e}"));
    }
    audit_served(&mut rt, &mirror, &users_sorted, cfg.k, cfg.epochs, &mut report);

    // Parity: the merged shard databases must be exactly the mirror.
    match rt.merged_db() {
        Ok(merged) => {
            let mut mirror_rows: Vec<(UserId, Point)> = mirror.iter().collect();
            mirror_rows.sort_unstable_by_key(|(u, _)| *u);
            let merged_rows: Vec<(UserId, Point)> = merged.iter().collect();
            if merged_rows != mirror_rows {
                report.failures.push(format!(
                    "sharded population diverged from the mirror ({} vs {} rows)",
                    merged_rows.len(),
                    mirror_rows.len()
                ));
            }
            report.population = merged.len();

            // Divergence bound: sharded aggregate cost vs the
            // single-shard optimum over the same final population.
            report.sharded_cost = rt.aggregate_cost();
            match Anonymizer::build(&merged, map, cfg.k) {
                Ok(single) => {
                    report.single_cost = single.policy().cost_exact().unwrap_or(0);
                    report.divergence_pct = divergence_pct(report.sharded_cost, report.single_cost);
                    if report.divergence_pct > cfg.divergence_bound_pct {
                        report.failures.push(format!(
                            "cost divergence {:.4}% exceeds the {:.2}% bound",
                            report.divergence_pct, cfg.divergence_bound_pct
                        ));
                    }
                }
                Err(e) => report.failures.push(format!("single-shard reference: {e}")),
            }
        }
        Err(e) => report.failures.push(format!("merged db: {e}")),
    }

    if report.crashes_injected != cfg.crashes.len() {
        report.failures.push(format!(
            "only {} of {} scheduled crashes injected",
            report.crashes_injected,
            cfg.crashes.len()
        ));
    }
    if !cfg.crashes.is_empty() {
        if report.recoveries < report.crashes_injected {
            report.failures.push(format!(
                "{} crashes but only {} recoveries",
                report.crashes_injected, report.recoveries
            ));
        }
        if report.served_during_crash == 0 {
            report.failures.push("global stall: nothing was served while a shard was down".into());
        }
    }

    // Total WAL pruning comes from the metrics sink: the runtime's
    // automatic post-checkpoint GC does most of the pruning when
    // retention is bounded, and only the counter sees those passes.
    report.wal_records_pruned = metrics.snapshot().counter(Counter::WalSegmentsPruned);

    // Fingerprint: every counter plus the final merged policy, so two
    // runs agree iff their observable outcomes agree.
    let mut h = report.fingerprint;
    let final_policy = crate::golden::policy_fingerprint(&rt.merged_policy());
    for v in [
        report.updates_applied as u64,
        report.migrations,
        report.served_fresh as u64,
        report.served_committed as u64,
        report.served_coarsened as u64,
        report.shed as u64,
        report.served_during_crash as u64,
        report.unavailable_during_crash as u64,
        report.replayed_total as u64,
        report.breaches as u64,
        report.sharded_cost as u64,
        report.single_cost as u64,
        final_policy,
    ] {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    report.fingerprint = h;

    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Queries every present sender, assembles the union of served cloaks,
/// and faces it with `verify_policy_aware` plus the PRE-enumerating
/// attacker over the served population. Senders on a down shard are
/// outside the observation set (they emit no request).
// lbs-lint: allow-item(location-taint, reason = "audit failure entries name user ids and epoch numbers; the served rows feed the attacker oracle in memory and never leave through the report strings")
fn audit_served(
    rt: &mut lbs_runtime::ShardedRuntime,
    mirror: &LocationDb,
    users_sorted: &[UserId],
    k: usize,
    epoch: u64,
    report: &mut SoakReport,
) {
    let expired = Some(Duration::from_millis(1));
    let mut served = BulkPolicy::new("soak-served");
    let mut served_rows: Vec<(UserId, Point)> = Vec::new();
    for &user in users_sorted {
        if mirror.location(user).is_none() {
            continue;
        }
        match rt.cloak_for(user, expired) {
            Ok((_, region)) => {
                served.assign(user, region);
                if let Some(p) = mirror.location(user) {
                    served_rows.push((user, p));
                }
            }
            Err(
                RuntimeError::Shed { .. }
                | RuntimeError::ShardDown { .. }
                | RuntimeError::UnknownUser(_),
            ) => {}
            Err(e) => {
                report.failures.push(format!("audit at epoch {epoch}: {user:?}: {e}"));
            }
        }
    }
    report.audits += 1;
    if served_rows.is_empty() {
        report.failures.push(format!("audit at epoch {epoch}: nobody was served"));
        return;
    }
    let served_db = match LocationDb::from_rows(served_rows) {
        Ok(db) => db,
        Err(e) => {
            report.failures.push(format!("audit at epoch {epoch}: served db: {e:?}"));
            return;
        }
    };
    if let Err(violations) = verify_policy_aware(&served, &served_db, k) {
        report.breaches += violations.len();
        report.failures.push(format!(
            "audit at epoch {epoch}: {} structural verify violations",
            violations.len()
        ));
    }
    let breaches = audit_policy(&served, &served_db, k);
    if !breaches.is_empty() {
        report.breaches += breaches.len();
        report.failures.push(format!(
            "audit at epoch {epoch}: attacker breached {} cloaks (first region {})",
            breaches.len(),
            breaches[0].region
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lbs-soak-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn smoke_soak_is_clean_and_deterministic() {
        let dir = scratch("smoke");
        let cfg = SoakConfig::smoke();
        let a = soak(&dir, &cfg).unwrap();
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.crashes_injected, 1);
        assert!(a.recoveries >= 1);
        assert!(a.replayed_total >= 1, "recovery must replay staged traffic");
        assert!(a.served_during_crash > 0, "other shards must serve through the outage");
        assert!(a.unavailable_during_crash > 0, "the down shard must refuse, not wedge");
        assert_eq!(a.breaches, 0);
        assert!(a.audits >= 2);
        assert!(a.divergence_pct <= cfg.divergence_bound_pct, "{a}");
        let b = soak(&dir, &cfg).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "same seed must reproduce the same soak");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_free_soak_serves_every_wave() {
        let dir = scratch("calm");
        let mut cfg = SoakConfig::smoke();
        cfg.seed = 0x50AC_0002;
        cfg.crashes.clear();
        cfg.epochs = 6;
        let report = soak(&dir, &cfg).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.crashes_injected, 0);
        assert_eq!(report.unavailable_during_crash, 0);
        assert!(report.served_fresh + report.served_committed + report.served_coarsened > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heavy_preset_validates_and_turns_on_self_healing() {
        let cfg = SoakConfig::heavy();
        cfg.validate().unwrap();
        assert_eq!(cfg.checkpoint_every, 1, "heavy tier must pile up generations");
        assert!(cfg.retain_checkpoints.is_some(), "heavy tier must bound retention");
        assert!(cfg.scrub_every > 0, "heavy tier must scrub mid-traffic");
        assert!(cfg.crashes.len() >= 2, "heavy tier must crash across the pruned lineage");
    }

    #[test]
    fn heavy_mechanics_scrub_and_gc_stay_clean_at_smoke_scale() {
        // The heavy tier's self-healing cadence (generation pile-up,
        // bounded retention, mid-traffic scrub + GC) at smoke scale, so
        // CI proves the machinery without the nightly's population.
        let dir = scratch("heavy-mech");
        let mut cfg = SoakConfig::smoke();
        cfg.seed = 0x50AC_4EA8;
        cfg.checkpoint_every = 1;
        cfg.retain_checkpoints = Some(2);
        cfg.scrub_every = 2;
        let report = soak(&dir, &cfg).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.scrubs >= 4, "scrub must run mid-traffic: {report}");
        // Retention bound (at most 2 generations per shard) is asserted
        // on disk at every scrub cadence and folds into is_clean();
        // pruning volume shows up in the WAL counter because the
        // automatic post-checkpoint GC does the trimming continuously.
        assert!(report.wal_records_pruned > 0, "retention GC must prune WAL records: {report}");
        assert!(report.recoveries >= 1, "the crash must recover across the pruned lineage");
        assert_eq!(report.breaches, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let dir = scratch("invalid");
        let mut cfg = SoakConfig::smoke();
        cfg.crashes[0].shard = 99;
        assert!(soak(&dir, &cfg).is_err());
        let mut cfg = SoakConfig::smoke();
        cfg.move_fraction = 1.5;
        assert!(soak(&dir, &cfg).is_err());
        let mut cfg = SoakConfig::smoke();
        cfg.epochs = 0;
        assert!(soak(&dir, &cfg).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
