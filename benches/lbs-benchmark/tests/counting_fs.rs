//! The counting storage backend is a pure pass-through: a small sharded
//! run over it leaves exactly the files, with exactly the bytes, that the
//! same run over `RealFs` leaves — and it counts what it passed through.

use lbs_benchmark::counting_fs::CountingFs;
use lbs_model::UserUpdate;
use lbs_runtime::{ShardedBuilder, ShardedConfig, StorageBackend};
use lbs_workload::{generate_master, random_moves, BayAreaConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every file under `dir`, by path relative to it, with its bytes.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("list service dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read service file");
                out.insert(path.strip_prefix(dir).expect("under dir").to_path_buf(), bytes);
            }
        }
    }
    out
}

/// Creates a two-shard service, pumps a few churn batches, scrubs,
/// crashes and recovers one shard, and drains.
fn small_run(dir: &Path, storage: Option<Arc<dyn StorageBackend>>) {
    let population = BayAreaConfig { seed: 11, ..BayAreaConfig::scaled_to(3_000) };
    let map = population.map();
    let mut db = generate_master(&population);
    let mut cfg = ShardedConfig::new(5, map, 2);
    cfg.checkpoint_every = 2;
    cfg.retain_checkpoints = Some(2);
    let mut builder = ShardedBuilder::new(cfg);
    if let Some(storage) = storage {
        builder = builder.storage(storage);
    }
    let mut rt = builder.create(dir, &db).expect("create service");
    for epoch in 0..6u64 {
        let moves = random_moves(&db, &map, 0.05, 200.0, 100 + epoch);
        let batch: Vec<UserUpdate> = moves.into_iter().map(UserUpdate::Move).collect();
        db.apply_updates(&batch).expect("mirror applies the batch");
        rt.pump(&batch).expect("pump");
    }
    rt.scrub().expect("scrub");
    rt.crash_shard(1).expect("crash");
    rt.recover_shard(1).expect("recover");
    rt.drain().expect("drain");
}

#[test]
fn counting_backend_leaves_the_same_files_as_real_fs() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("counting_fs");
    let _ = std::fs::remove_dir_all(&root);
    let (real, counted) = (root.join("real"), root.join("counted"));

    small_run(&real, None);
    let fs = Arc::new(CountingFs::new());
    let counts = fs.counts();
    small_run(&counted, Some(fs));

    let (a, b) = (tree(&real), tree(&counted));
    assert!(a.keys().any(|p| p.to_string_lossy().contains("checkpoint-")), "{:?}", a.keys());
    assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
    for (path, bytes) in &a {
        assert!(b[path] == *bytes, "{} differs", path.display());
    }

    let totals = counts.totals();
    assert!(totals.writes > 0 && totals.syncs > 0 && totals.reads > 0, "{totals:?}");
    assert!(totals.wal_bytes > 0 && totals.checkpoint_bytes > 0, "{totals:?}");
    assert!(totals.wal_syncs > 0 && totals.renames > 0 && totals.removes > 0, "{totals:?}");
    assert!(totals.write_bytes >= totals.wal_bytes + totals.checkpoint_bytes, "{totals:?}");
    let _ = std::fs::remove_dir_all(&root);
}
