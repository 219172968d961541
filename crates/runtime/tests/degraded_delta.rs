//! Multi-stage differential test of degraded serving.
//!
//! `ServiceRuntime::cloak_for` serves rungs 1–2 from a delta: only the
//! cloak groups of users staged since the commit are re-derived. Here
//! seeded runtimes stage one to four batches with no commit between them
//! — near and far moves, a user moved twice, inserts, deletes that push a
//! group below `k`, a deleted id re-inserted, and a departure staged
//! three times over — and after every stage each database user's answer
//! must equal the whole-population `degraded_policy` over the committed
//! policy and the current database. The same holds after an
//! injected-panic commit that fails with `RetriesExhausted` and after a
//! cancelled commit: a commit that does not publish keeps what was
//! staged. After a successful commit every answer is Fresh.

use lbs_geom::{Point, Rect, Region};
use lbs_metrics::{Counter, Metrics};
use lbs_model::{Move, UserId, UserUpdate};
use lbs_parallel::FaultPlan;
use lbs_runtime::{
    degraded_policy, Clock, ManualClock, Rung, RuntimeBuilder, RuntimeConfig, RuntimeError,
    ServiceRuntime,
};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SIDE: i64 = 64;

/// An absolute deadline every clock reading has already passed.
const EXPIRED: Option<Duration> = Some(Duration::ZERO);

type Outcome<T = ()> = Result<T, Box<dyn Error>>;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbs-delta-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn random_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE))
}

/// What the answers came out as, over every check: fresh, committed,
/// coarsened, shed.
#[derive(Default, Debug)]
struct Tally {
    rungs: [usize; 4],
    /// Stages that left a group at exactly `k` live members after one of
    /// its members was deleted, re-inserted and deleted again.
    exact_k_groups: usize,
}

/// One service under test, with what the test itself knows about it.
struct Scenario {
    rt: ServiceRuntime,
    metrics: Arc<Metrics>,
    rng: StdRng,
    /// Users staged since the last successful commit.
    staged: BTreeSet<UserId>,
    /// Ids deleted earlier and free to come back.
    deleted: Vec<UserId>,
    next_id: u64,
}

impl Scenario {
    fn new(seed: u64, dir: &Path) -> Outcome<Self> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE1_7A00);
        let k = rng.gen_range(2..=5);
        let n = rng.gen_range(8 * k..=150);
        let db = lbs_model::LocationDb::from_rows(
            (0..n as u64).map(|i| (UserId(i), random_point(&mut rng))),
        )?;
        let mut cfg = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
        cfg.checkpoint_every = 0;
        cfg.max_retries = 1;
        let metrics = Arc::new(Metrics::new());
        // Every attempt at publishing epoch 2 panics, so the first round
        // of stages is served after failed commits only.
        let rt = RuntimeBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()) as Arc<dyn Clock>)
            .metrics(Arc::clone(&metrics))
            .faults(FaultPlan::new().panic_on(2, 99))
            .create(dir, &db)?;
        let (staged, deleted) = (BTreeSet::new(), Vec::new());
        Ok(Scenario { rt, metrics, rng, staged, deleted, next_id: 10_000 })
    }

    /// Builds and stages one batch.
    fn stage(&mut self, tally: &mut Tally) -> Outcome {
        let k = self.rt.k();
        let mut batch = Vec::new();
        // A deleted id re-inserted.
        if !self.deleted.is_empty() && self.rng.gen_bool(0.5) {
            let user = self.deleted.swap_remove(self.rng.gen_range(0..self.deleted.len()));
            batch.push(UserUpdate::Insert { user, at: random_point(&mut self.rng) });
        }
        // Deletes that push one committed group below k, while the
        // population is large enough to spare them.
        let roomy = self.rt.db().len() > 6 * k;
        if roomy && self.rng.gen_bool(0.5) {
            if let Some(live) = self.live_group(|size| size >= k) {
                for &user in live.iter().skip(k - 1) {
                    batch.push(UserUpdate::Delete { user });
                    self.deleted.push(user);
                }
            }
        }
        // A group left at exactly k live members, one of its departures
        // deleted, re-inserted and deleted again in the same batch.
        if roomy && self.rng.gen_bool(0.5) {
            let busy: BTreeSet<UserId> = batch.iter().map(UserUpdate::user).collect();
            let live = self.live_group(|size| size > k).unwrap_or_default();
            if let Some((&thrice, rest)) = live.split_first() {
                if live.iter().all(|u| !busy.contains(u)) {
                    let at = random_point(&mut self.rng);
                    batch.push(UserUpdate::Delete { user: thrice });
                    batch.push(UserUpdate::Insert { user: thrice, at });
                    batch.push(UserUpdate::Delete { user: thrice });
                    self.deleted.push(thrice);
                    for &user in rest.iter().skip(k) {
                        batch.push(UserUpdate::Delete { user });
                        self.deleted.push(user);
                    }
                    tally.exact_k_groups += 1;
                }
            }
        }
        let busy: BTreeSet<UserId> = batch.iter().map(UserUpdate::user).collect();
        let mut present: Vec<UserId> = self.rt.db().users().filter(|u| !busy.contains(u)).collect();
        present.shuffle(&mut self.rng);
        let mut free = present.into_iter();

        // Near moves, far moves, and one user moved twice.
        for _ in 0..self.rng.gen_range(1..=8) {
            let Some(user) = free.next() else { break };
            let p = self.rt.db().location(user).ok_or("a mover must be present")?;
            let jitter = |c: i64, rng: &mut StdRng| (c + rng.gen_range(-3..=3)).clamp(0, SIDE - 1);
            let to = Point::new(jitter(p.x, &mut self.rng), jitter(p.y, &mut self.rng));
            batch.push(UserUpdate::Move(Move { user, to }));
        }
        for _ in 0..self.rng.gen_range(0..=3) {
            let Some(user) = free.next() else { break };
            batch.push(UserUpdate::Move(Move { user, to: random_point(&mut self.rng) }));
        }
        if let Some(user) = free.next() {
            for _ in 0..2 {
                batch.push(UserUpdate::Move(Move { user, to: random_point(&mut self.rng) }));
            }
        }
        // Inserts of new ids.
        for _ in 0..self.rng.gen_range(0..=2) {
            let user = UserId(self.next_id);
            self.next_id += 1;
            batch.push(UserUpdate::Insert { user, at: random_point(&mut self.rng) });
        }
        self.staged.extend(batch.iter().map(UserUpdate::user));
        self.rt.apply_batch(&batch)?;
        Ok(())
    }

    /// The live members of one committed group none of whose members has
    /// left, chosen at random among those whose size passes `size_ok`.
    fn live_group(&mut self, size_ok: impl Fn(usize) -> bool) -> Option<Vec<UserId>> {
        let groups = self.rt.committed_policy().groups();
        let mut candidates: Vec<Vec<UserId>> = groups
            .into_values()
            .filter(|members| {
                size_ok(members.len()) && members.iter().all(|&u| self.rt.db().contains(u))
            })
            .collect();
        candidates.sort();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates.swap_remove(self.rng.gen_range(0..candidates.len())))
    }

    /// Every database user's answer equals the whole degraded policy.
    /// When something was staged since the last check (`derives`), one
    /// derivation looked at exactly the groups of the staged users;
    /// otherwise the memo answers.
    fn check_degraded(&mut self, what: &str, derives: bool, tally: &mut Tally) -> Outcome {
        let (epoch, committed_seq) = (self.rt.epoch(), self.rt.committed_seq());
        assert!(committed_seq < self.rt.durable_seq(), "{what}: nothing is staged");
        let committed = self.rt.committed_policy().clone();
        let want = degraded_policy(&committed, self.rt.db(), &self.rt.map(), self.rt.k());
        let mut touched_groups: Vec<Region> = Vec::new();
        for region in self.staged.iter().filter_map(|&u| committed.cloak_of(u)) {
            if !touched_groups.contains(region) {
                touched_groups.push(*region);
            }
        }
        let derived_before = self.metrics.get(Counter::DegradedGroupsDerived);
        let users: Vec<UserId> = self.rt.db().users().collect();
        for user in users {
            match self.rt.cloak_for(user, EXPIRED) {
                Ok((rung, region)) => {
                    assert_eq!(Some(&region), want.policy.cloak_of(user), "{what}: {user}");
                    assert_eq!(Some(&rung), want.rungs.get(&user), "{what}: {user}");
                    tally.rungs[if rung == Rung::Committed { 1 } else { 2 }] += 1;
                }
                Err(RuntimeError::Shed { user: shed }) => {
                    assert_eq!(shed, user);
                    assert!(want.shed.binary_search(&user).is_ok(), "{what}: {user} was shed");
                    tally.rungs[3] += 1;
                }
                Err(e) => return Err(format!("{what}: {user}: {e}").into()),
            }
        }
        assert_eq!(
            (self.rt.epoch(), self.rt.committed_seq()),
            (epoch, committed_seq),
            "{what}: a commit went through"
        );
        assert_eq!(
            self.metrics.get(Counter::DegradedGroupsDerived) - derived_before,
            if derives { touched_groups.len() as u64 } else { 0 },
            "{what}: one derivation, over the groups of the staged users only"
        );
        Ok(())
    }

    /// After a successful commit every user is served Fresh.
    fn check_fresh(&mut self, what: &str, tally: &mut Tally) -> Outcome {
        assert_eq!(self.rt.committed_seq(), self.rt.durable_seq(), "{what}");
        self.staged.clear();
        let committed = self.rt.committed_policy().clone();
        let users: Vec<UserId> = self.rt.db().users().collect();
        for user in users {
            let (rung, region) = self.rt.cloak_for(user, EXPIRED)?;
            assert_eq!(Some(&region), committed.cloak_of(user), "{what}: {user}");
            assert_eq!(rung, Rung::Fresh, "{what}: {user}");
            tally.rungs[0] += 1;
        }
        Ok(())
    }
}

#[test]
fn staged_delta_matches_the_whole_derivation_after_every_stage() -> Outcome {
    let mut tally = Tally::default();
    for seed in 0..48 {
        let dir = tmp_dir(&seed.to_string());
        let mut s = Scenario::new(seed, &dir)?;

        // Round 1: every commit to epoch 2 panics until retries run out.
        for stage in 0..s.rng.gen_range(1..=4) {
            s.stage(&mut tally)?;
            s.check_degraded(&format!("seed {seed} round 1 stage {stage}"), true, &mut tally)?;
        }
        assert!(matches!(s.rt.commit(), Err(RuntimeError::RetriesExhausted { .. })));
        s.check_degraded(&format!("seed {seed}: after a failed commit"), false, &mut tally)?;
        // A checkpoint folds the staged updates in without the fault plan.
        s.rt.checkpoint_now()?;
        s.check_fresh(&format!("seed {seed}: after the checkpoint's commit"), &mut tally)?;

        // Round 2: every commit is cancelled by its expired deadline.
        for stage in 0..s.rng.gen_range(1..=4) {
            s.stage(&mut tally)?;
            s.check_degraded(&format!("seed {seed} round 2 stage {stage}"), true, &mut tally)?;
        }
        assert!(matches!(s.rt.commit_with_deadline(EXPIRED), Err(RuntimeError::DeadlineExceeded)));
        s.check_degraded(&format!("seed {seed}: after a cancelled commit"), false, &mut tally)?;
        s.rt.commit()?;
        s.check_fresh(&format!("seed {seed}: after a successful commit"), &mut tally)?;
        drop(s);
        std::fs::remove_dir_all(&dir)?;
    }
    assert!(tally.rungs.iter().all(|&n| n > 1000), "every rung must answer: {tally:?}");
    assert!(tally.exact_k_groups > 50, "too few exactly-k groups: {tally:?}");
    Ok(())
}
