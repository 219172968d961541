//! Parallel batched refresh of an [`IncrementalAnonymizer`] on the
//! work-stealing pool.
//!
//! A batched commit dirties many root paths at once. The maintainer's
//! [`plan_refresh`](IncrementalAnonymizer::plan_refresh) coalesces them
//! into disjoint dirty subtrees plus a shared ancestor spine; this module
//! computes the subtrees concurrently on the [`engine`](crate::engine)
//! pool (each worker reusing one DP scratch arena), applies their rows in
//! plan order, and sweeps the spine sequentially. Because tasks touch
//! disjoint rows and read only task-local rows or clean data, and rows
//! come from the same engines the sequential sweep uses, the refreshed
//! matrix is **bit-identical** to [`IncrementalAnonymizer::refresh`] for
//! any worker count and any steal interleaving — pinned by
//! `tests/incremental_batch.rs`.
//!
//! Cancellation keeps the sequential path's partial-progress contract:
//! rows of tasks that completed before the deadline are applied and
//! retired from the pending set, so a later refresh (parallel or not)
//! resumes where this one stopped and completes identically. A panicking
//! task keeps the same contract: the pool catches it, its siblings' rows
//! are applied, and the refresh returns [`CoreError::WorkerPanic`].

use crate::engine::{run_pool, EngineConfig, ScratchPool};
use lbs_core::{first_poll_taken, CoreError, IncrementalAnonymizer, IncrementalReport};
use lbs_metrics::{Counter, Metrics};

/// How many plan tasks to aim for per worker. A little over-decomposition
/// lets the stealing discipline absorb skew between subtree sizes without
/// fragmenting the dirty set into per-row tasks.
const TASKS_PER_WORKER: usize = 4;

/// Recomputes every pending row of `inc`, running disjoint dirty subtrees
/// concurrently on a work-stealing pool of
/// [`EngineConfig::effective_workers`] threads.
///
/// Falls back to the sequential sweep when the plan yields fewer than two
/// tasks (single dirty path, tiny dirty set, or one worker) — the result
/// is bit-identical either way, so callers never need to choose. `cancel`
/// is polled once per computed row on whichever worker computes it; as in
/// [`IncrementalAnonymizer::refresh_cancellable`], the first row's poll is
/// taken before the dirty walk, so an expired deadline cancels in `O(1)`.
/// On cancellation or a task panic, completed tasks' rows are applied
/// before the error returns, preserving resumable partial progress; a
/// panicked task is re-run first up to [`EngineConfig::max_task_retries`]
/// times. `SubtreeCacheHits` counts the cache hits of every applied row,
/// whether the refresh finished or not.
///
/// # Errors
/// [`CoreError::Cancelled`] when `cancel` fires with rows still pending;
/// [`CoreError::WorkerPanic`] when a task panics past its retries; DP
/// errors otherwise.
pub fn refresh_parallel(
    inc: &mut IncrementalAnonymizer,
    config: &EngineConfig,
    pool: Option<&ScratchPool>,
    metrics: Option<&Metrics>,
    cancel: &(dyn Fn() -> bool + Sync),
) -> Result<IncrementalReport, CoreError> {
    let mut report = IncrementalReport::default();
    let result = refresh_into(inc, config, pool, metrics, cancel, &mut report);
    if let Some(m) = metrics {
        m.add(Counter::SubtreeCacheHits, report.cache_hits as u64);
    }
    result.map(|()| report)
}

/// The body of [`refresh_parallel`], accumulating into `report` so the
/// caller can count the work of a cancelled refresh too.
fn refresh_into(
    inc: &mut IncrementalAnonymizer,
    config: &EngineConfig,
    pool: Option<&ScratchPool>,
    metrics: Option<&Metrics>,
    cancel: &(dyn Fn() -> bool + Sync),
    report: &mut IncrementalReport,
) -> Result<(), CoreError> {
    let workers = config.effective_workers(inc.pending_rows());
    if workers <= 1 {
        return inc.refresh_into(cancel, report);
    }
    if inc.has_live_pending() && cancel() {
        return Err(CoreError::Cancelled);
    }
    let cancel = first_poll_taken(cancel);
    let plan = inc.plan_refresh(workers * TASKS_PER_WORKER);
    if plan.tasks.len() < 2 {
        return inc.refresh_into(&cancel, report);
    }
    report.dirty_subtrees = plan.tasks.len();
    if let Some(m) = metrics {
        m.add(Counter::DirtySubtrees, plan.tasks.len() as u64);
    }

    let shared: &IncrementalAnonymizer = inc;
    let payloads = plan.tasks.into_iter().enumerate().collect();
    let (completed, error) = run_pool(payloads, config, pool, None, metrics, |scratch, nodes| {
        shared.compute_task_rows(nodes, scratch, &cancel)
    });
    // Apply whatever finished — in index order, so progress is
    // deterministic — before surfacing any error. Tasks touch disjoint
    // rows, so partially applied plans stay correct and resumable.
    for (_, task) in completed {
        inc.apply_task_rows(task, report);
    }
    if let Some(err) = error {
        return Err(err);
    }
    inc.refresh_sequence(&plan.spine, &cancel, report)?;
    inc.finish_refresh(report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::{Point, Rect};
    use lbs_model::{LocationDb, Move, UserId, UserUpdate};
    use lbs_tree::{TreeConfig, TreeKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_db(rng: &mut StdRng, n: usize, side: i64) -> LocationDb {
        LocationDb::from_rows((0..n).map(|i| {
            (UserId(i as u64), Point::new(rng.gen_range(0..side), rng.gen_range(0..side)))
        }))
        .unwrap()
    }

    fn random_moves(rng: &mut StdRng, n: u64, count: usize, side: i64) -> Vec<Move> {
        let moves: Vec<Move> = (0..count)
            .map(|_| Move {
                user: UserId(rng.gen_range(0..n)),
                to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        moves.into_iter().rev().filter(|m| seen.insert(m.user)).collect()
    }

    fn stage_round(
        kind: TreeKind,
        seed: u64,
    ) -> (IncrementalAnonymizer, IncrementalAnonymizer, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 128i64;
        let n = 400u64;
        let k = 6;
        let mut db = random_db(&mut rng, n as usize, side);
        let cfg = TreeConfig::lazy(kind, Rect::square(0, 0, side), k);
        let mut seq = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
        let moves = random_moves(&mut rng, n, 48, side);
        db.apply_moves(&moves).unwrap();
        let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
        seq.stage_updates(&updates).unwrap();
        let par = seq.clone();
        let pending = seq.pending_rows();
        (seq, par, pending)
    }

    #[test]
    fn parallel_refresh_is_bit_identical_at_any_worker_count() {
        for kind in [TreeKind::Binary, TreeKind::Quad] {
            let (mut seq, base, _) = stage_round(kind, 97);
            let seq_report = seq.refresh().unwrap();
            for workers in [2usize, 4, 8] {
                let mut par = base.clone();
                let config = EngineConfig { workers, ..EngineConfig::default() };
                let report = refresh_parallel(&mut par, &config, None, None, &|| false).unwrap();
                assert!(par.is_fresh());
                assert_eq!(report.rows_recomputed, seq_report.rows_recomputed);
                assert_eq!(report.rows_reused, seq_report.rows_reused);
                assert!(report.dirty_subtrees > 1, "{kind:?}/{workers}: {report:?}");
                assert_eq!(
                    par.matrix(),
                    seq.matrix(),
                    "{kind:?} with {workers} workers must match sequential"
                );
            }
        }
    }

    #[test]
    fn one_worker_falls_back_to_sequential_sweep() {
        let (mut seq, mut par, _) = stage_round(TreeKind::Binary, 3);
        seq.refresh().unwrap();
        let config = EngineConfig { workers: 1, ..EngineConfig::default() };
        let report = refresh_parallel(&mut par, &config, None, None, &|| false).unwrap();
        assert_eq!(report.dirty_subtrees, 0, "no plan on one worker");
        assert_eq!(par.matrix(), seq.matrix());
    }

    #[test]
    fn cancelled_parallel_refresh_keeps_progress_and_resumes_identically() {
        let (mut seq, mut par, pending) = stage_round(TreeKind::Binary, 11);
        seq.refresh().unwrap();

        // Fire the deadline after a few rows; workers poll per row.
        let budget = std::sync::atomic::AtomicUsize::new(5);
        let cancel = || {
            use std::sync::atomic::Ordering;
            // fetch_update never fails with this closure; saturate at 0.
            budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| Some(b.saturating_sub(1)))
                .unwrap_or(0)
                == 0
        };
        let config = EngineConfig { workers: 4, ..EngineConfig::default() };
        let err = refresh_parallel(&mut par, &config, None, None, &cancel).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled));
        assert!(!par.is_fresh(), "cancelled refresh leaves rows pending");
        assert!(par.pending_rows() <= pending, "completed tasks retired their rows");

        // A later (uncancelled) refresh completes to the sequential result.
        let config = EngineConfig { workers: 4, ..EngineConfig::default() };
        refresh_parallel(&mut par, &config, None, None, &|| false).unwrap();
        assert!(par.is_fresh());
        assert_eq!(par.matrix(), seq.matrix());
    }

    /// [`stage_round`] after one refresh with `moves` more moves staged —
    /// or, for `moves == 0`, one delete, which dirties a single root path —
    /// so the subtree cache holds cost vectors the next refresh can hit.
    fn second_round(seed: u64, moves: usize) -> IncrementalAnonymizer {
        let (mut inc, _, _) = stage_round(TreeKind::Binary, seed);
        inc.refresh().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC0);
        let updates: Vec<UserUpdate> = if moves == 0 {
            vec![UserUpdate::Delete { user: UserId(0) }]
        } else {
            random_moves(&mut rng, 400, moves, 128).into_iter().map(UserUpdate::Move).collect()
        };
        inc.stage_updates(&updates).unwrap();
        inc
    }

    #[test]
    fn subtree_cache_hits_are_counted_on_planned_and_fallback_paths() {
        // 48 moves plan into several subtrees; one worker, or a delete's
        // single dirty root path, falls back to the sequential sweep.
        for (workers, moves, planned) in [(4, 48, true), (1, 48, false), (4, 0, false)] {
            let mut inc = second_round(5, moves);
            let metrics = Metrics::new();
            let config = EngineConfig { workers, ..EngineConfig::default() };
            let report =
                refresh_parallel(&mut inc, &config, None, Some(&metrics), &|| false).unwrap();
            assert_eq!(report.dirty_subtrees > 1, planned, "{workers}/{moves}: {report:?}");
            assert!(report.cache_hits > 0, "{workers}/{moves}: {report:?}");
            assert_eq!(metrics.get(Counter::SubtreeCacheHits), report.cache_hits as u64);
        }
    }

    #[test]
    fn cancel_is_polled_once_per_computed_row_on_every_path() {
        // Planned, one worker, and the single-path fallback on four.
        for (workers, moves) in [(4, 48), (1, 48), (4, 0)] {
            let mut par = second_round(29, moves);
            let polls = std::sync::atomic::AtomicUsize::new(0);
            let counting = || {
                polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                false
            };
            let config = EngineConfig { workers, ..EngineConfig::default() };
            let report = refresh_parallel(&mut par, &config, None, None, &counting).unwrap();
            assert_eq!(report.dirty_subtrees > 1, (workers, moves) == (4, 48), "{report:?}");
            assert_eq!(polls.into_inner(), report.rows_recomputed, "{workers}/{moves}");
        }
    }

    #[test]
    fn expired_cancel_leaves_pending_rows_and_matrix_untouched() {
        for workers in [1usize, 4] {
            let (_, mut par, pending) = stage_round(TreeKind::Binary, 31);
            let matrix = par.matrix().clone();
            let config = EngineConfig { workers, ..EngineConfig::default() };
            let metrics = Metrics::new();
            let err =
                refresh_parallel(&mut par, &config, None, Some(&metrics), &|| true).unwrap_err();
            assert!(matches!(err, CoreError::Cancelled));
            assert_eq!(par.pending_rows(), pending, "{workers} workers");
            assert_eq!(par.matrix(), &matrix, "{workers} workers");
            assert_eq!(metrics.get(Counter::DirtySubtrees), 0, "cancelled before planning");
        }
    }

    #[test]
    fn panicking_task_keeps_sibling_rows_and_a_later_refresh_completes_identically() {
        let (mut seq, mut par, pending) = stage_round(TreeKind::Binary, 41);
        seq.refresh().unwrap();

        // The cancel hook is polled once per computed row on the worker
        // computing it: panic on the 4th poll, inside whichever task is
        // running then. Its siblings never see another panic.
        let polls = std::sync::atomic::AtomicUsize::new(0);
        let panicking = || {
            if polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 3 {
                panic!("injected failure in a refresh task");
            }
            false
        };
        let metrics = Metrics::new();
        let config = EngineConfig { workers: 2, ..EngineConfig::default() };
        let err =
            refresh_parallel(&mut par, &config, None, Some(&metrics), &panicking).unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => assert!(msg.contains("injected failure"), "{msg}"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(metrics.get(Counter::WorkerPanics), 1);
        let dirty = metrics.get(Counter::DirtySubtrees);
        assert!(dirty > 2, "the plan must have siblings: {dirty}");
        assert_eq!(metrics.get(Counter::TasksExecuted), dirty, "the pool drains every task");
        // Completed siblings' rows were applied and retired; the panicked
        // task's rows and the spine stay pending.
        assert!(!par.is_fresh());
        assert!(par.pending_rows() < pending, "{} of {pending} rows pending", par.pending_rows());

        // A later refresh completes to the sequential result.
        refresh_parallel(&mut par, &config, None, None, &|| false).unwrap();
        assert!(par.is_fresh());
        assert_eq!(par.matrix(), seq.matrix());
    }

    #[test]
    fn pooled_refresh_reuses_scratch_arenas() {
        let pool = ScratchPool::new();
        let config = EngineConfig { workers: 4, ..EngineConfig::default() };
        for round in 0..2 {
            let (_, mut par, _) = stage_round(TreeKind::Binary, 60 + round);
            refresh_parallel(&mut par, &config, Some(&pool), None, &|| false).unwrap();
            assert!(par.is_fresh());
        }
        assert!(pool.idle() > 0, "arenas returned to the pool");
    }
}
