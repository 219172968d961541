//! Differential tests for incremental policy extraction.
//!
//! A commit re-extracts only the subtrees its refresh touched and
//! patches the maintained policy in place (DESIGN.md §9). The oracle is
//! the full extractor: after every completed refresh, the maintained
//! policy must be byte-identical (`encode_policy`, name included) to
//! `extract_policy` over the same tree and matrix. Seeded churn
//! sequences cover moves, inserts, deletes, a delete plus re-insert of
//! the same user, batches that split and collapse lazily built nodes,
//! several staged batches before one refresh, and cancelled refreshes
//! resumed later, on binary and quad trees; the service runtime is held
//! to the same oracle at 1 and 4 refresh workers.

use lbs_model::{encode_policy, UserUpdate};
use lbs_parallel::refresh_parallel;
use lbs_runtime::{ManualClock, RuntimeBuilder, RuntimeConfig};
use policy_aware_lbs::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

const SIDE: i64 = 128;

/// Seeded churn over a live population: who is present, who was deleted
/// (and may come back under the same id), and the next fresh id.
struct Churn {
    rng: StdRng,
    present: Vec<UserId>,
    deleted: Vec<UserId>,
    next_id: u64,
    /// Users never deleted below this count, so every snapshot keeps
    /// enough users for k-anonymity.
    floor: usize,
}

impl Churn {
    fn new(seed: u64, n: usize, floor: usize) -> (Self, LocationDb) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = LocationDb::from_rows(
            (0..n).map(|i| (UserId(i as u64), Self::point(&mut rng, (0, 0), SIDE))),
        )
        .unwrap();
        let present = (0..n as u64).map(UserId).collect();
        (Churn { rng, present, deleted: Vec::new(), next_id: n as u64, floor }, db)
    }

    fn point(rng: &mut StdRng, corner: (i64, i64), span: i64) -> Point {
        Point::new(corner.0 + rng.gen_range(0..span), corner.1 + rng.gen_range(0..span))
    }

    /// One batch. Most batches mix a few moves, inserts and deletes
    /// (sometimes a delete and re-insert of one user in the same batch);
    /// some crowd many users into one corner (splits) or scatter a
    /// crowd back out (collapses).
    fn batch(&mut self) -> Vec<UserUpdate> {
        let mut batch = Vec::new();
        let mut touched: Vec<UserId> = Vec::new();
        let shape = self.rng.gen_range(0..10);
        let crowd = shape == 0;
        let moves = if shape <= 1 { self.present.len() / 3 } else { self.rng.gen_range(1..=6) };
        let corner = (self.rng.gen_range(0..SIDE - 8), self.rng.gen_range(0..SIDE - 8));
        for _ in 0..moves {
            let user = self.present[self.rng.gen_range(0..self.present.len())];
            if touched.contains(&user) {
                continue;
            }
            touched.push(user);
            let to = if crowd {
                Self::point(&mut self.rng, corner, 8)
            } else {
                Self::point(&mut self.rng, (0, 0), SIDE)
            };
            batch.push(UserUpdate::Move(Move { user, to }));
        }
        for _ in 0..self.rng.gen_range(0..=2) {
            // A new user, or a deleted one coming back under its old id.
            let user = if !self.deleted.is_empty() && self.rng.gen_bool(0.5) {
                self.deleted.swap_remove(self.rng.gen_range(0..self.deleted.len()))
            } else {
                self.next_id += 1;
                UserId(self.next_id - 1)
            };
            touched.push(user);
            self.present.push(user);
            let at = Self::point(&mut self.rng, (0, 0), SIDE);
            batch.push(UserUpdate::Insert { user, at });
        }
        for _ in 0..self.rng.gen_range(0..=2) {
            if self.present.len() <= self.floor {
                break;
            }
            let i = self.rng.gen_range(0..self.present.len());
            let user = self.present[i];
            if touched.contains(&user) {
                continue;
            }
            touched.push(user);
            batch.push(UserUpdate::Delete { user });
            if self.rng.gen_bool(0.3) {
                // Delete and re-insert in one batch.
                let at = Self::point(&mut self.rng, (0, 0), SIDE);
                batch.push(UserUpdate::Insert { user, at });
            } else {
                self.present.swap_remove(i);
                self.deleted.push(user);
            }
        }
        batch
    }
}

/// What the sweep exercised, so a generator change cannot silently drop
/// a case.
#[derive(Default)]
struct Coverage {
    sequences: usize,
    refreshes: usize,
    splits: usize,
    collapses: usize,
    deletes: usize,
    reinserts: usize,
    multi_batch: usize,
    cancelled: usize,
    partial: usize,
}

/// Stages `batch`, counting the splits and collapses it causes (on a
/// clone of the tree, since the anonymizer reports neither).
fn stage(inc: &mut IncrementalAnonymizer, batch: &[UserUpdate], cov: &mut Coverage) {
    let mut probe = inc.tree().clone();
    let report = probe.apply_updates(batch).unwrap();
    cov.splits += report.splits;
    cov.collapses += report.collapses;
    for (i, up) in batch.iter().enumerate() {
        if let UserUpdate::Delete { user } = *up {
            cov.deletes += 1;
            if batch[i..]
                .iter()
                .any(|u| matches!(*u, UserUpdate::Insert { user: v, .. } if v == user))
            {
                cov.reinserts += 1;
            }
        }
    }
    inc.stage_updates(batch).unwrap();
}

/// The oracle: the maintained policy equals a full extraction.
fn assert_matches_full(inc: &mut IncrementalAnonymizer, ctx: &str) {
    let want = encode_policy(&inc.matrix().extract_policy(inc.tree()).unwrap());
    let got = encode_policy(inc.policy().unwrap());
    assert!(got == want, "{ctx}: incremental extraction diverged from a full one");
}

fn run_sequence(seed: u64, cov: &mut Coverage) {
    let kind = if seed.is_multiple_of(2) { TreeKind::Binary } else { TreeKind::Quad };
    let k = 2 + (seed as usize % 5);
    let (mut churn, db) = Churn::new(seed, 60 + (seed as usize * 37) % 140, 4 * k);
    let config = TreeConfig::lazy(kind, Rect::square(0, 0, SIDE), k);
    let mut inc = IncrementalAnonymizer::new(&db, config, k).unwrap();
    assert_matches_full(&mut inc, &format!("seed {seed} initial"));
    for round in 0..6 {
        let ctx = format!("seed {seed} {kind:?} k={k} round {round}");
        match churn.rng.gen_range(0..4) {
            0 => {
                // Several staged batches, one refresh.
                for _ in 0..churn.rng.gen_range(2..=4) {
                    let batch = churn.batch();
                    stage(&mut inc, &batch, cov);
                }
                cov.multi_batch += 1;
                inc.refresh().unwrap();
            }
            1 => {
                // A refresh cancelled part-way (or before its first row),
                // then resumed by a later one.
                let batch = churn.batch();
                stage(&mut inc, &batch, cov);
                let committed = encode_policy(inc.committed_policy());
                let budget = churn.rng.gen_range(0..4);
                let polls = Cell::new(0usize);
                let cancel = || {
                    polls.set(polls.get() + 1);
                    polls.get() > budget
                };
                if inc.refresh_cancellable(&cancel).is_err() {
                    cov.cancelled += 1;
                    cov.partial += usize::from(budget > 0);
                    assert!(matches!(inc.policy(), Err(CoreError::StaleMatrix(_))), "{ctx}");
                    assert!(encode_policy(inc.committed_policy()) == committed, "{ctx}");
                    if churn.rng.gen_bool(0.5) {
                        // More churn lands before the resuming refresh.
                        let batch = churn.batch();
                        stage(&mut inc, &batch, cov);
                    }
                }
                inc.refresh().unwrap();
            }
            _ => {
                let batch = churn.batch();
                stage(&mut inc, &batch, cov);
                if churn.rng.gen_bool(0.5) {
                    inc.refresh().unwrap();
                } else {
                    let config = EngineConfig { workers: 3, ..EngineConfig::default() };
                    refresh_parallel(&mut inc, &config, None, None, &|| false).unwrap();
                }
            }
        }
        cov.refreshes += 1;
        assert_matches_full(&mut inc, &ctx);
    }
    cov.sequences += 1;
}

#[test]
fn incremental_extraction_equals_full_extraction_over_seeded_churn() {
    let mut cov = Coverage::default();
    for seed in 0..220 {
        run_sequence(seed, &mut cov);
    }
    assert!(cov.sequences >= 200);
    assert!(cov.refreshes >= 6 * 200);
    for (what, n) in [
        ("splits", cov.splits),
        ("collapses", cov.collapses),
        ("deletes", cov.deletes),
        ("delete plus re-insert", cov.reinserts),
        ("multi-batch refreshes", cov.multi_batch),
        ("cancelled refreshes", cov.cancelled),
        ("refreshes cancelled after some rows", cov.partial),
    ] {
        assert!(n > 0, "the sweep never exercised {what}");
    }
}

/// The service runtime commits the policy a fresh build over its
/// database extracts, at 1 and 4 refresh workers alike, including after
/// commits cancelled by an expired deadline.
#[test]
fn runtime_commits_equal_a_fresh_extraction_at_any_worker_count() {
    for seed in [3u64, 8, 13] {
        let k = 4;
        let map = Rect::square(0, 0, SIDE);
        let mut fingerprints: Vec<Vec<Vec<u8>>> = Vec::new();
        for workers in [1usize, 4] {
            let (mut churn, db) = Churn::new(seed, 400, 8 * k);
            let dir = std::env::temp_dir()
                .join(format!("lbs-incremental-extract-{seed}-{workers}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = RuntimeConfig::new(k, map);
            cfg.refresh_workers = workers;
            let metrics = Arc::new(Metrics::new());
            let mut rt = RuntimeBuilder::new(cfg)
                .clock(Arc::new(ManualClock::new()))
                .metrics(Arc::clone(&metrics))
                .create(&dir, &db)
                .unwrap();
            let mut prints = Vec::new();
            for round in 0..8 {
                let ctx = format!("seed {seed} workers {workers} round {round}");
                let batch = churn.batch();
                rt.apply_batch(&batch).unwrap();
                if round % 3 == 1 {
                    let before = encode_policy(rt.committed_policy());
                    assert!(rt.commit_with_deadline(Some(Duration::ZERO)).is_err(), "{ctx}");
                    assert!(encode_policy(rt.committed_policy()) == before, "{ctx}");
                }
                rt.commit().unwrap();
                let mut fresh = IncrementalAnonymizer::new(
                    rt.db(),
                    TreeConfig::lazy(TreeKind::Binary, map, k),
                    k,
                )
                .unwrap();
                let committed = encode_policy(rt.committed_policy()).to_vec();
                assert!(committed[..] == encode_policy(fresh.policy().unwrap())[..], "{ctx}");
                prints.push(committed);
            }
            // Four workers really split refreshes into parallel tasks.
            assert_eq!(metrics.get(Counter::DirtySubtrees) > 0, workers > 1, "seed {seed}");
            fingerprints.push(prints);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(fingerprints[0] == fingerprints[1], "seed {seed}: worker count changed a policy");
    }
}
