//! Crash-safe anonymization service runtime.
//!
//! The paper's Section IV evaluates incremental maintenance of the
//! `Bulk_dp` matrix under churn, implicitly assuming a long-running
//! anonymizer. This crate makes that assumption hold under failure:
//!
//! * **Durability** — churn batches go through a CRC-framed write-ahead
//!   log ([`wal`]) before they touch any state; committed state is
//!   periodically checkpointed ([`checkpoint`]) with atomic publication.
//!   Crash recovery loads the newest valid checkpoint, rebuilds the tree
//!   and matrix (deterministic functions of the database), and replays
//!   the WAL suffix recomputing only dirty DP rows — bit-identical to a
//!   run that never crashed, at every crash point.
//! * **Deadline budgets** — every request may carry a deadline; the DP
//!   refresh cancels cooperatively at semi-quadrant (row) granularity,
//!   and transient faults retry with seeded-jitter exponential backoff.
//!   All time is injected through a [`Clock`], so schedules replay.
//! * **Degradation ladder** ([`degrade`]) — fresh optimal policy →
//!   last-committed cloak → coarser semi-quadrant ancestor cloak →
//!   explicit rejection; every rung preserves Definition 6, degrading
//!   cost and latency but never anonymity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod clock;
mod degrade;
mod error;
mod router;
mod runtime;
mod scrub;
mod shard;
mod storage;
mod wal;

pub use checkpoint::{
    checkpoint_path, decode_checkpoint, encode_checkpoint, list_checkpoints, list_checkpoints_via,
    load_latest, load_latest_via, quarantine, verify_checkpoint_bytes, write_checkpoint,
    write_checkpoint_via, Checkpoint, CheckpointHeader, LoadOutcome, QUARANTINE_SUFFIX,
};
pub use clock::{Clock, ManualClock, SystemClock};
pub use degrade::{ancestor_chain, degraded_policy, DegradedPolicy, Rung};
pub use error::RuntimeError;
pub use router::{
    divergence_pct, merge_policies, sharded_bulk, ShardOutcome, ShardPlan, SplitBatches,
    MANIFEST_FILE,
};
pub use runtime::{
    backoff_delay, RecoveryReport, RuntimeBuilder, RuntimeConfig, ServedRequest, ServiceRuntime,
};
pub use scrub::{scrub_dir, GcReport, ScrubReport};
pub use shard::{IngestReport, PumpReport, ShardedBuilder, ShardedConfig, ShardedRuntime};
pub use storage::{
    is_crash_point, is_storage_full, real_fs, DiskFaultPlan, FaultFs, RealFs, StorageBackend,
    StorageFile, CRASH_POINT_MARKER,
};
pub use wal::{
    crc32, encode_frame, scan, Wal, WalRecord, MAX_RECORD_BYTES, WAL_FILE, WAL_HEADER_LEN,
};

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_core::verify_policy_aware;
    use lbs_geom::{Point, Rect};
    use lbs_metrics::{Counter, Metrics};
    use lbs_model::{encode_policy, LocationDb, Move, RequestParams, UserId, UserUpdate};
    use lbs_parallel::FaultPlan;
    use lbs_tree::{SpatialTree, TreeConfig, TreeKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Duration;

    const SIDE: i64 = 64;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbs-rt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed_db(seed: u64, n: usize) -> LocationDb {
        let mut rng = StdRng::seed_from_u64(seed);
        LocationDb::from_rows((0..n).map(|i| {
            (UserId(i as u64), Point::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE)))
        }))
        .unwrap()
    }

    fn batches(seed: u64, db: &LocationDb, rounds: usize) -> Vec<Vec<UserUpdate>> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let mut present: Vec<UserId> = db.users().collect();
        let mut next_id = present.iter().map(|u| u.0).max().unwrap_or(0) + 1;
        (0..rounds)
            .map(|_| {
                let mut batch: Vec<UserUpdate> = Vec::new();
                for _ in 0..4 {
                    let user = present[rng.gen_range(0..present.len())];
                    if batch.iter().any(|u| u.user() == user) {
                        continue;
                    }
                    batch.push(UserUpdate::Move(Move {
                        user,
                        to: Point::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE)),
                    }));
                }
                if rng.gen_range(0..3) == 0 {
                    batch.push(UserUpdate::Insert {
                        user: UserId(next_id),
                        at: Point::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE)),
                    });
                    present.push(UserId(next_id));
                    next_id += 1;
                }
                if rng.gen_range(0..4) == 0 && present.len() > 30 {
                    if let Some(&victim) =
                        present.iter().find(|u| !batch.iter().any(|b| b.user() == **u))
                    {
                        batch.push(UserUpdate::Delete { user: victim });
                        present.retain(|&u| u != victim);
                    }
                }
                batch
            })
            .collect()
    }

    fn manual_builder(k: usize) -> RuntimeBuilder {
        RuntimeBuilder::new(RuntimeConfig::new(k, Rect::square(0, 0, SIDE)))
            .clock(Arc::new(ManualClock::new()))
    }

    #[test]
    fn apply_commit_matches_incremental_reference() {
        let dir = tmp_dir("commit");
        let db0 = seed_db(41, 50);
        let k = 4;
        let mut rt = manual_builder(k).create(&dir, &db0).unwrap();
        assert_eq!(rt.epoch(), 1);
        for (i, batch) in batches(41, &db0, 6).iter().enumerate() {
            let seq = rt.apply_batch(batch).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert!(rt.pending_rows() > 0 || batch.is_empty());
            rt.commit().unwrap();
            assert_eq!(rt.committed_seq(), seq);
            let policy = rt.committed_policy();
            assert!(policy.is_masking_and_total(rt.db()));
            assert!(verify_policy_aware(policy, rt.db(), k).is_ok());
        }
        assert_eq!(rt.epoch(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_refresh_commits_bit_identically_to_sequential() {
        let db0 = seed_db(23, 60);
        let k = 4;
        let rounds = 6;
        let seq_dir = tmp_dir("par-seq");
        let mut seq_rt = manual_builder(k).create(&seq_dir, &db0).unwrap();

        let par_dir = tmp_dir("par-par");
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.refresh_workers = 4;
        let metrics = Arc::new(Metrics::new());
        let mut par_rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .create(&par_dir, &db0)
            .unwrap();

        let mut updates_total = 0u64;
        for batch in batches(23, &db0, rounds) {
            seq_rt.apply_batch(&batch).unwrap();
            seq_rt.commit().unwrap();
            par_rt.apply_batch(&batch).unwrap();
            par_rt.commit().unwrap();
            updates_total += batch.len() as u64;
            assert_eq!(
                encode_policy(par_rt.committed_policy()),
                encode_policy(seq_rt.committed_policy()),
                "parallel refresh must commit the same bytes"
            );
        }
        assert_eq!(metrics.get(Counter::BatchedMoves), updates_total);
        std::fs::remove_dir_all(&seq_dir).unwrap();
        std::fs::remove_dir_all(&par_dir).unwrap();
    }

    #[test]
    fn invalid_batches_touch_nothing_durable() {
        let dir = tmp_dir("invalid");
        let db0 = seed_db(5, 40);
        let mut rt = manual_builder(3).create(&dir, &db0).unwrap();
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(rt
            .apply_batch(&[UserUpdate::Move(Move { user: UserId(999), to: Point::new(1, 1) })])
            .is_err());
        assert!(rt
            .apply_batch(&[UserUpdate::Insert { user: UserId(999), at: Point::new(SIDE + 5, 1) }])
            .is_err());
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), wal_len);
        assert_eq!(rt.durable_seq(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_without_wal_suffix_restores_checkpoint_state() {
        let dir = tmp_dir("reload");
        let db0 = seed_db(77, 45);
        let k = 3;
        let expected = {
            let mut rt = manual_builder(k).create(&dir, &db0).unwrap();
            for batch in batches(77, &db0, 4) {
                rt.apply_batch(&batch).unwrap();
                rt.commit().unwrap();
            }
            rt.checkpoint_now().unwrap();
            encode_policy(rt.committed_policy())
        };
        let (rt, report) = manual_builder(k).recover(&dir).unwrap();
        assert_eq!(report.checkpoint_seq, 4);
        assert_eq!(report.replayed, 0);
        assert_eq!(encode_policy(rt.committed_policy()), expected);
        assert_eq!(rt.epoch(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_wal_suffix_bit_identically() {
        let k = 4;
        let db0 = seed_db(13, 55);
        let rounds = 8;
        // Reference: never crashes, commits every batch, checkpoints only
        // at creation (seq 0), so recovery must replay the whole WAL.
        let ref_dir = tmp_dir("ref");
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 0;
        let mut reference = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .create(&ref_dir, &db0)
            .unwrap();
        let mut per_round = Vec::new();
        for batch in batches(13, &db0, rounds) {
            reference.apply_batch(&batch).unwrap();
            reference.commit().unwrap();
            per_round.push(encode_policy(reference.committed_policy()));
        }

        let metrics = Arc::new(Metrics::new());
        let (recovered, report) = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .faults(FaultPlan::new().stall_during_replay(3, Duration::from_millis(40)))
            .recover(&ref_dir)
            .unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.replayed, rounds);
        assert!(report.replay_time >= Duration::from_millis(40), "injected stall counted");
        assert_eq!(metrics.get(Counter::RecoveryReplayMs), 40);
        assert_eq!(
            encode_policy(recovered.committed_policy()),
            *per_round.last().unwrap(),
            "recovered policy bit-identical to the uninterrupted run"
        );
        assert_eq!(recovered.epoch(), reference.epoch());
        std::fs::remove_dir_all(&ref_dir).unwrap();
    }

    #[test]
    fn create_refuses_initialized_dir_and_recover_refuses_empty() {
        let dir = tmp_dir("guard");
        let db0 = seed_db(2, 30);
        let rt = manual_builder(3).create(&dir, &db0).unwrap();
        drop(rt);
        assert!(matches!(
            manual_builder(3).create(&dir, &db0),
            Err(RuntimeError::AlreadyInitialized(_))
        ));
        let empty = tmp_dir("guard-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(manual_builder(3).recover(&empty), Err(RuntimeError::NoState(_))));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    /// A directory whose every generation is a CRC-valid version-1 file
    /// (the old layout, with the committed policy after the snapshot)
    /// recovers to a typed `NoState`: each generation is skipped as
    /// corrupt, none is decoded by guesswork.
    #[test]
    fn recovery_over_only_version_1_generations_is_a_typed_error() {
        let dir = tmp_dir("v1");
        let db0 = seed_db(21, 40);
        let mut rt = manual_builder(3).create(&dir, &db0).unwrap();
        for batch in batches(21, &db0, 2) {
            rt.apply_batch(&batch).unwrap();
            rt.commit().unwrap();
        }
        rt.checkpoint_now().unwrap();
        let policy = encode_policy(rt.committed_policy());
        drop(rt);
        let generations = list_checkpoints(&dir).unwrap();
        assert_eq!(generations.len(), 2);
        for (_, path) in &generations {
            let raw = std::fs::read(path).unwrap();
            let mut body = raw[..raw.len() - 4].to_vec();
            body[4..8].copy_from_slice(&1u32.to_le_bytes());
            body.extend_from_slice(&(policy.len() as u64).to_le_bytes());
            body.extend_from_slice(&policy);
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            std::fs::write(path, body).unwrap();
        }
        let metrics = Arc::new(Metrics::new());
        let res = manual_builder(3).metrics(Arc::clone(&metrics)).recover(&dir);
        assert!(matches!(res, Err(RuntimeError::NoState(_))), "{res:?}");
        assert_eq!(metrics.get(Counter::GenerationFallbacks), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_commit_panics_retry_with_deterministic_backoff() {
        let dir = tmp_dir("retry");
        let db0 = seed_db(8, 40);
        let clock = Arc::new(ManualClock::new());
        let metrics = Arc::new(Metrics::new());
        // Epoch 2's first two attempts panic; the third succeeds.
        let mut rt = manual_builder(4)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .metrics(Arc::clone(&metrics))
            .faults(FaultPlan::new().panic_on(2, 2))
            .create(&dir, &db0)
            .unwrap();
        rt.apply_batch(&batches(8, &db0, 1)[0]).unwrap();
        let before = clock.now();
        rt.commit().unwrap();
        assert_eq!(rt.epoch(), 2);
        assert_eq!(metrics.get(Counter::TaskRetries), 2);
        assert_eq!(metrics.get(Counter::WorkerPanics), 2);
        let elapsed = clock.now() - before;
        // Exactly the seeded backoff schedule advanced the manual clock.
        let cfg = RuntimeConfig::new(4, Rect::square(0, 0, SIDE));
        let expected = backoff_delay(cfg.backoff_base, cfg.retry_seed ^ 2, 0)
            + backoff_delay(cfg.backoff_base, cfg.retry_seed ^ 2, 1);
        assert_eq!(elapsed, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retries_exhaust_into_typed_error_and_ladder_still_serves() {
        let dir = tmp_dir("exhaust");
        let db0 = seed_db(19, 48);
        let k = 4;
        let metrics = Arc::new(Metrics::new());
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.max_retries = 1;
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .faults(FaultPlan::new().panic_on(2, 99))
            .create(&dir, &db0)
            .unwrap();
        rt.apply_batch(&batches(19, &db0, 1)[0]).unwrap();
        assert!(matches!(rt.commit(), Err(RuntimeError::RetriesExhausted { attempts: 2, .. })));
        // The ladder answers from the committed policy instead.
        let (rung, region) = rt.cloak_for(UserId(1), None).unwrap();
        assert!(matches!(rung, Rung::Committed | Rung::Coarsened));
        assert!(region.contains(&rt.db().location(UserId(1)).unwrap()));
        assert!(
            metrics.get(Counter::DegradedCommitted) + metrics.get(Counter::DegradedCoarsened) == 1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_cancellation_degrades_then_late_commit_is_identical() {
        let dir = tmp_dir("deadline");
        let db0 = seed_db(29, 60);
        let k = 4;
        let clock = Arc::new(ManualClock::new());
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 0;
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .create(&dir, &db0)
            .unwrap();
        rt.apply_batch(&batches(29, &db0, 1)[0]).unwrap();
        // Deadline already expired: the refresh cancels at its first
        // semi-quadrant row and the request degrades.
        clock.advance(Duration::from_millis(10));
        let expired = Some(Duration::from_millis(5));
        assert!(matches!(rt.commit_with_deadline(expired), Err(RuntimeError::DeadlineExceeded)));
        // Some sender must still be servable on a degraded rung (newly
        // inserted or under-k-group senders are legitimately shed).
        let (rung, _) = rt
            .db()
            .users()
            .collect::<Vec<_>>()
            .into_iter()
            .find_map(|u| rt.cloak_for(u, expired).ok())
            .expect("at least one degraded answer");
        assert_ne!(rung, Rung::Fresh);
        // A later unconstrained commit completes and matches a run that
        // never saw the deadline.
        rt.commit().unwrap();
        let via_deadline = encode_policy(rt.committed_policy());
        let clean_dir = tmp_dir("deadline-clean");
        let mut clean = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .create(&clean_dir, &db0)
            .unwrap();
        clean.apply_batch(&batches(29, &db0, 1)[0]).unwrap();
        clean.commit().unwrap();
        assert_eq!(via_deadline, encode_policy(clean.committed_policy()));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&clean_dir).unwrap();
    }

    #[test]
    fn expired_deadline_serves_the_degraded_policy_without_touching_the_commit() {
        let dir = tmp_dir("expired");
        let db0 = seed_db(47, 80);
        let k = 4;
        let clock = Arc::new(ManualClock::new());
        let metrics = Arc::new(Metrics::new());
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 0;
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .metrics(Arc::clone(&metrics))
            .create(&dir, &db0)
            .unwrap();
        for batch in batches(47, &db0, 3) {
            rt.apply_batch(&batch).unwrap();
        }
        clock.advance(Duration::from_millis(10));
        let expired = Some(Duration::from_millis(5));
        let (epoch, committed_seq, pending) = (rt.epoch(), rt.committed_seq(), rt.pending_rows());
        assert!(pending > 0 && committed_seq < rt.durable_seq());

        let want = degraded_policy(rt.committed_policy(), rt.db(), &rt.map(), k);
        let users: Vec<UserId> = rt.db().users().collect();
        let mut served = 0u64;
        for user in users {
            match (rt.cloak_for(user, expired), want.policy.cloak_of(user)) {
                (Ok((rung, region)), Some(cloak)) => {
                    assert_eq!((Some(&rung), &region), (want.rungs.get(&user), cloak), "{user}");
                    served += 1;
                }
                (Err(RuntimeError::Shed { .. }), None) => assert!(want.shed.contains(&user)),
                (got, cloak) => panic!("{user}: served {got:?}, degraded policy says {cloak:?}"),
            }
        }
        assert!(served > 0);
        assert_eq!(
            metrics.get(Counter::DegradedCommitted) + metrics.get(Counter::DegradedCoarsened),
            served
        );
        assert_eq!(
            (rt.epoch(), rt.committed_seq(), rt.pending_rows()),
            (epoch, committed_seq, pending)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_checkpoint_retries_and_survivors_recover() {
        let dir = tmp_dir("ckpt-crash");
        let db0 = seed_db(31, 42);
        let metrics = Arc::new(Metrics::new());
        let mut rt = manual_builder(3)
            .metrics(Arc::clone(&metrics))
            .faults(FaultPlan::new().crash_mid_checkpoint(1, 1))
            .create(&dir, &db0)
            .unwrap();
        rt.apply_batch(&batches(31, &db0, 1)[0]).unwrap();
        rt.commit().unwrap();
        // Checkpoint at seq 1 crashed once (torn tmp left), then succeeded.
        rt.checkpoint_now().unwrap();
        assert_eq!(metrics.get(Counter::FaultsInjected), 1);
        assert!(metrics.get(Counter::CheckpointsWritten) >= 2);
        let expected = encode_policy(rt.committed_policy());
        drop(rt);
        let (recovered, report) = manual_builder(3).recover(&dir).unwrap();
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(encode_policy(recovered.committed_policy()), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn new_sender_is_shed_until_the_next_commit() {
        let dir = tmp_dir("shed");
        let db0 = seed_db(37, 36);
        let k = 3;
        let metrics = Arc::new(Metrics::new());
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.max_retries = 0;
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .faults(FaultPlan::new().panic_on(2, 99))
            .create(&dir, &db0)
            .unwrap();
        rt.apply_batch(&[UserUpdate::Insert { user: UserId(500), at: Point::new(3, 3) }]).unwrap();
        // Commit is being blocked by injected faults: the brand-new sender
        // has no committed cloak and must be shed, not served some guess.
        assert!(matches!(
            rt.cloak_for(UserId(500), None),
            Err(RuntimeError::Shed { user: UserId(500) })
        ));
        assert_eq!(metrics.get(Counter::RequestsShed), 1);
        assert!(matches!(rt.cloak_for(UserId(9999), None), Err(RuntimeError::UnknownUser(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_serve_bumps_cache_epoch_on_commit() {
        use lbs_query::{Poi, PoiId, PoiStore};
        let dir = tmp_dir("serve");
        let db0 = seed_db(43, 40);
        let pois = vec![
            Poi { id: PoiId(0), location: Point::new(8, 8), category: "rest".into() },
            Poi { id: PoiId(1), location: Point::new(50, 50), category: "rest".into() },
        ];
        let store = PoiStore::build(Rect::square(0, 0, SIDE), 16, pois).unwrap();
        let mut rt =
            manual_builder(4).lbs(lbs_query::CloakedLbs::new(store)).create(&dir, &db0).unwrap();
        let params = RequestParams::from_pairs([("poi", "rest")]);
        let served = rt.serve(UserId(0), params.clone(), None).unwrap();
        assert_eq!(served.rung, Rung::Fresh);
        let answer = served.answer.unwrap();
        assert!(answer.nearest.is_some());
        // Same request again: cache hit under the same epoch.
        let again = rt.serve(UserId(0), params.clone(), None).unwrap();
        assert!(again.answer.unwrap().cache_hit);
        // Commit bumps the epoch → cached answers invalidated.
        rt.apply_batch(&batches(43, &db0, 1)[0]).unwrap();
        rt.commit().unwrap();
        let after = rt.serve(UserId(0), params, None).unwrap();
        assert!(!after.answer.unwrap().cache_hit, "stale cross-epoch answer served");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_retention_keeps_the_lineage_flat_and_recovery_identical() {
        let dir = tmp_dir("retention");
        let db0 = seed_db(61, 48);
        let k = 3;
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 1;
        cfg.retain_checkpoints = Some(2);
        let metrics = Arc::new(Metrics::new());
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .create(&dir, &db0)
            .unwrap();
        for batch in batches(61, &db0, 6) {
            rt.apply_batch(&batch).unwrap();
            rt.commit().unwrap();
        }
        // GC after every checkpoint keeps at most 2 generations on disk
        // and prunes WAL records no retained generation needs.
        let listed = list_checkpoints(&dir).unwrap();
        assert!(listed.len() <= 2, "retention must bound the lineage, found {}", listed.len());
        assert!(metrics.get(Counter::WalSegmentsPruned) > 0, "WAL must have been pruned");
        let expected = encode_policy(rt.committed_policy());
        let expected_epoch = rt.epoch();
        drop(rt);
        let (recovered, _) =
            RuntimeBuilder::new(cfg).clock(Arc::new(ManualClock::new())).recover(&dir).unwrap();
        assert_eq!(encode_policy(recovered.committed_policy()), expected);
        assert_eq!(recovered.epoch(), expected_epoch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_falls_back_over_a_rotten_newest_generation() {
        let dir = tmp_dir("fallback");
        let db0 = seed_db(67, 45);
        let k = 3;
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 1;
        let expected = {
            let mut rt = RuntimeBuilder::new(cfg)
                .clock(Arc::new(ManualClock::new()))
                .create(&dir, &db0)
                .unwrap();
            for batch in batches(67, &db0, 3) {
                rt.apply_batch(&batch).unwrap();
                rt.commit().unwrap();
            }
            encode_policy(rt.committed_policy())
        };
        // Rot the newest generation on disk; its replay suffix is still in
        // the WAL, so falling back to the previous generation must land on
        // byte-identical state.
        let newest = checkpoint_path(&dir, 3);
        let mut raw = std::fs::read(&newest).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        std::fs::write(&newest, raw).unwrap();
        let metrics = Arc::new(Metrics::new());
        let (recovered, report) = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .recover(&dir)
            .unwrap();
        assert_eq!(report.checkpoint_seq, 2, "fell back one generation");
        assert_eq!(report.replayed, 1, "the skipped generation's suffix replays from the WAL");
        assert_eq!(metrics.get(Counter::GenerationFallbacks), 1);
        assert_eq!(encode_policy(recovered.committed_policy()), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_quarantines_and_counts_through_the_runtime() {
        let dir = tmp_dir("scrub-rt");
        let db0 = seed_db(71, 40);
        let mut cfg = RuntimeConfig::new(3, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 1;
        let metrics = Arc::new(Metrics::new());
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .create(&dir, &db0)
            .unwrap();
        for batch in batches(71, &db0, 2) {
            rt.apply_batch(&batch).unwrap();
            rt.commit().unwrap();
        }
        // Rot generation 1 (not the newest), then scrub in-process.
        let victim = checkpoint_path(&dir, 1);
        let mut raw = std::fs::read(&victim).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x04;
        std::fs::write(&victim, raw).unwrap();
        let report = rt.scrub().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.newest_verified_seq, Some(2));
        assert_eq!(metrics.get(Counter::ScrubsRun), 1);
        assert_eq!(metrics.get(Counter::CorruptFilesQuarantined), 1);
        assert!(!victim.exists());
        assert!(victim.with_extension("ckpt.quarantined").exists(), "bytes kept for forensics");
        // The runtime keeps serving and the healed lineage recovers clean.
        let expected = encode_policy(rt.committed_policy());
        drop(rt);
        let (recovered, _) =
            RuntimeBuilder::new(cfg).clock(Arc::new(ManualClock::new())).recover(&dir).unwrap();
        assert_eq!(encode_policy(recovered.committed_policy()), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_ladder_frees_space_via_gc_then_sheds_typed() {
        let dir = tmp_dir("enospc-ladder");
        let db0 = seed_db(73, 40);
        let k = 3;
        // Phase 1: unbounded retention builds up a prunable lineage.
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 1;
        let all = batches(73, &db0, 40);
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .create(&dir, &db0)
            .unwrap();
        for batch in &all[..4] {
            rt.apply_batch(batch).unwrap();
            rt.commit().unwrap();
        }
        drop(rt);
        assert!(list_checkpoints(&dir).unwrap().len() >= 4, "phase 1 left a deep lineage");

        // Phase 2: reopen with bounded retention on a disk with a small
        // write budget. The first ENOSPC triggers the emergency GC, which
        // removes the old generations and prunes the WAL — the retry then
        // lands. Once nothing is left to free, the ladder sheds with a
        // typed error instead of panicking or silently dropping.
        let mut cfg2 = cfg;
        cfg2.checkpoint_every = 0;
        cfg2.retain_checkpoints = Some(1);
        let metrics = Arc::new(Metrics::new());
        let fault_fs = FaultFs::new(DiskFaultPlan::new().capacity_bytes(2_048));
        let (mut rt, _) = RuntimeBuilder::new(cfg2)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .storage(Arc::new(fault_fs))
            .recover(&dir)
            .unwrap();
        let mut last_ok = 4u64;
        let mut shed = false;
        for batch in &all[4..] {
            match rt.apply_batch(batch) {
                Ok(seq) => last_ok = seq,
                Err(RuntimeError::StorageExhausted { op, .. }) => {
                    assert_eq!(op, "append");
                    shed = true;
                    break;
                }
                Err(other) => panic!("only a typed shed may surface: {other}"),
            }
        }
        assert!(shed, "the budget must eventually exhaust");
        assert!(last_ok > 4, "appends landed after the emergency GC freed space");
        assert!(metrics.get(Counter::WalSegmentsPruned) > 0, "emergency GC pruned the WAL");
        assert_eq!(metrics.get(Counter::EnospcSheds), 1);
        assert!(list_checkpoints(&dir).unwrap().len() <= 1, "old generations were removed");

        // Durable state survived every rung: a clean-disk recovery replays
        // to exactly the last acknowledged sequence.
        drop(rt);
        let (recovered, _) =
            RuntimeBuilder::new(cfg2).clock(Arc::new(ManualClock::new())).recover(&dir).unwrap();
        assert_eq!(recovered.durable_seq(), last_ok, "acknowledged batches survived");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_ladder_rung_passes_the_policy_aware_verifier() {
        let dir = tmp_dir("rungs");
        let db0 = seed_db(53, 60);
        let k = 4;
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.max_retries = 0;
        let mut rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .faults(FaultPlan::new().panic_on(2, 99))
            .create(&dir, &db0)
            .unwrap();

        // Rung 0 (fresh): the full committed policy is k-anonymous.
        assert!(verify_policy_aware(rt.committed_policy(), rt.db(), k).is_ok());
        let (rung, _) = rt.cloak_for(UserId(0), None).unwrap();
        assert_eq!(rung, Rung::Fresh);

        // Push churn while commits are blocked, collect every degraded
        // answer, and verify the rung-2/3 output as one policy over the
        // served population.
        for batch in batches(53, &db0, 3) {
            rt.apply_batch(&batch).unwrap();
        }
        let users: Vec<UserId> = rt.db().users().collect();
        let mut degraded = lbs_model::BulkPolicy::new("observed-degraded");
        let mut rungs_seen = std::collections::BTreeSet::new();
        let mut served_rows = Vec::new();
        for &user in &users {
            match rt.cloak_for(user, None) {
                Ok((rung, region)) => {
                    assert_ne!(rung, Rung::Fresh, "commits are blocked");
                    rungs_seen.insert(rung.name());
                    degraded.assign(user, region);
                    served_rows.push((user, rt.db().location(user).unwrap()));
                }
                Err(RuntimeError::Shed { .. }) => {}
                Err(other) => panic!("unexpected: {other}"),
            }
        }
        let served = LocationDb::from_rows(served_rows).unwrap();
        assert!(served.len() >= k);
        assert!(
            verify_policy_aware(&degraded, &served, k).is_ok(),
            "degraded rungs must stay policy-aware k-anonymous"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_small_commit_extracts_only_the_subtrees_it_touched() {
        let dir = tmp_dir("extract-small");
        let side = 1 << 12;
        let map = Rect::square(0, 0, side);
        let users = 10_000u64;
        let mut rng = StdRng::seed_from_u64(61);
        let mut point = || Point::new(rng.gen_range(0..side), rng.gen_range(0..side));
        let db0 = LocationDb::from_rows((0..users).map(|i| (UserId(i), point()))).unwrap();
        let k = 10;
        let metrics = Arc::new(Metrics::new());
        let mut rt = RuntimeBuilder::new(RuntimeConfig::new(k, map))
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(&metrics))
            .create(&dir, &db0)
            .unwrap();
        let live_nodes = |db: &LocationDb| {
            let config = TreeConfig::lazy(TreeKind::Binary, map, k);
            SpatialTree::build(db, config).unwrap().live_len() as u64
        };
        // Creation extracts every live node and cloaks every user.
        assert_eq!(metrics.get(Counter::ExtractNodes), live_nodes(&db0));
        assert_eq!(metrics.get(Counter::CloaksWritten), users);

        let moves: Vec<UserUpdate> = (0..10)
            .map(|i| UserUpdate::Move(Move { user: UserId(i * 997), to: point() }))
            .collect();
        rt.apply_batch(&moves).unwrap();
        rt.commit().unwrap();
        let nodes = metrics.get(Counter::ExtractNodes) - live_nodes(&db0);
        let cloaks = metrics.get(Counter::CloaksWritten) - users;
        let live = live_nodes(rt.db());
        assert!(nodes > 0 && nodes * 10 < live, "extracted {nodes} of {live} live nodes");
        assert!(cloaks > 0 && cloaks * 10 < users, "rewrote {cloaks} of {users} cloaks");
        assert!(rt.committed_policy().is_masking_and_total(rt.db()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
