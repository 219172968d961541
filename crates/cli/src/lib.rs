//! Command-line front end for the policy-aware anonymization system.
//!
//! The `lbs` binary wires the library into a file-based workflow a CSP
//! operator (or a reviewer) can drive by hand:
//!
//! ```text
//! lbs gen       --users 100000 --seed 7 --out snapshot.bin
//! lbs anonymize --snapshot snapshot.bin --k 50 --out policy.bin
//! lbs audit     --snapshot snapshot.bin --policy policy.bin --k 50
//! lbs stats     --snapshot snapshot.bin --k 50
//! lbs compare   --snapshot snapshot.bin --k 50
//! lbs lookup    --policy policy.bin --user 42
//! lbs serve     --dir service/ --snapshot snapshot.bin --k 50 --rounds 5
//! lbs recover   --dir service/
//! ```
//!
//! Snapshots and policies travel in the compact binary codecs of
//! `lbs-model` (`encode_snapshot` / `encode_policy`). All command logic
//! lives in this library so it is unit-testable; `src/bin/lbs.rs` is a
//! thin shell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Args, ArgsError};
pub use commands::{command_names, run, CliError};
