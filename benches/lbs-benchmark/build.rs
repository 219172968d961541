//! Records the `target-cpu` the benchmark was compiled for, so every
//! result can say which codegen produced it (`.cargo/config.toml` sets
//! `native`; a `RUSTFLAGS` override would change it).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\u{1f}')
        .filter_map(|flag| flag.trim_start_matches("-C").strip_prefix("target-cpu="))
        .next_back()
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=LBS_BENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
