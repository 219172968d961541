//! The lint registry: every lint `lbs-lint` knows, with per-lint docs.
//! Rules that clippy or rustc already implement (unwrap, panic, print,
//! float `==`, `unsafe`) are not here: they live in the root
//! `Cargo.toml`'s `[workspace.lints]` table.
//!
//! Adding a lint is a three-step change (see DESIGN.md §8): register it
//! here, implement its matcher in [`crate::rules`], and add a seeded
//! violation fixture to `crates/lint/tests/rule_fixtures.rs`.

/// How severe a finding is. Only unsuppressed [`Severity::Error`]
/// findings fail the lint run; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails CI when unsuppressed.
    Error,
    /// Reported but never fails the run.
    Warn,
}

impl Severity {
    /// Stable lower-case name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One registered lint.
#[derive(Debug, Clone, Copy)]
pub struct LintDef {
    /// Kebab-case lint name, referenced by suppression pragmas.
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary for `lbs lint --list`.
    pub summary: &'static str,
    /// Which invariant the lint protects and how to fix a finding.
    pub doc: &'static str,
    /// Whether this lint only fires under `lbs lint --deep` (the
    /// interprocedural passes). Pragmas naming deep lints are exempt from
    /// `unused-suppression` in shallow runs, where the lint cannot fire.
    pub deep: bool,
}

/// Name of the meta-lint for malformed / unknown suppression pragmas.
pub const MALFORMED_PRAGMA: &str = "malformed-pragma";
/// Name of the meta-lint for pragmas that suppress nothing.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Every lint, in reporting order.
pub const LINTS: &[LintDef] = &[
    LintDef {
        name: "no-wall-clock-in-dp",
        severity: Severity::Error,
        summary: "Instant::now/SystemTime only in lbs-metrics and bench code",
        doc: "`Bulk_dp` outputs must be a pure function of (snapshot, k, seed); \
              wall-clock reads in algorithm crates invite time-dependent behavior. \
              Timing belongs in lbs-metrics stage timers. Pure observability reads \
              that cannot influence outputs may be suppressed with a reason.",
        deep: false,
    },
    LintDef {
        name: "no-hashmap-in-serialized-output",
        severity: Severity::Error,
        summary: "serialized structs must not contain HashMap/HashSet fields",
        doc: "Hash iteration order is randomized per process, so serializing a \
              HashMap field produces byte-different output across runs — exactly \
              the nondeterminism golden corpora exist to catch. Use BTreeMap / \
              BTreeSet, or mark the field `#[serde(skip)]`.",
        deep: false,
    },
    LintDef {
        name: "no-unchecked-io-in-runtime",
        severity: Severity::Error,
        summary: "runtime WAL/checkpoint code must not unwrap/expect io::Result values",
        doc: "Durability code in lbs-runtime (WAL appends, checkpoint writes, \
              recovery scans) treats every io failure as a first-class outcome: \
              a torn frame or failed fsync must surface as `RuntimeError::Io` so \
              recovery and retry can handle it. An unwrap on an io::Result \
              panics mid-write and can leave a half-written frame behind with \
              no typed record of the failure. Propagate with `?` (via the \
              `From<io::Error>` impl) instead.",
        deep: false,
    },
    LintDef {
        name: "no-raw-fs-in-runtime",
        severity: Severity::Error,
        summary: "runtime durability code must go through the StorageBackend seam",
        doc: "Every byte lbs-runtime persists flows through the `StorageBackend` \
              trait (`crates/runtime/src/storage.rs`), so the deterministic \
              fault layer (`FaultFs`) sees every write, fsync, rename, and \
              read the production path performs. A direct `std::fs`/`File::`/\
              `OpenOptions` call bypasses the seam: it works in production and \
              silently escapes every storage-fault sweep, leaving that io \
              unexercised by crash-restart testing. Route the operation \
              through the backend handle (`storage.create/read/rename/…`); \
              storage.rs itself (the seam's one real-fs implementation) and \
              test code are exempt.",
        deep: false,
    },
    LintDef {
        name: "panic-reachability",
        severity: Severity::Error,
        summary: "no panicking construct is reachable from a service entry point (--deep)",
        doc: "Interprocedural: starting from the service entry points declared in \
              lint-taint.toml ([panic-reachability] entry-points), every function \
              transitively reachable over the workspace call graph must be free of \
              `unwrap`/`expect`, panic-family macros, and unguarded indexing. A \
              finding is anchored at the panicking construct and carries the \
              call-graph trace from the nearest entry point. Guarded indexing \
              (loop-bound index, literal index, `.len()`-checked receiver) is \
              exempt; anything else needs a typed-error rewrite or a reasoned \
              pragma at the site.",
        deep: true,
    },
    LintDef {
        name: "location-taint",
        severity: Severity::Error,
        summary: "raw coordinates must not flow into formatting/error/WAL/serde sinks (--deep)",
        doc: "Interprocedural taint: values of the source types in lint-taint.toml \
              ([location-taint] sources: `Point`, `UserUpdate`, …) must not reach \
              Debug/Display formatting, error strings, or WAL/serde sinks — in \
              this function or any callee — except through the sanctioned \
              cloak/policy sanitizers. The paper's Definition-6 guarantee is void \
              if a precise coordinate leaks through a log line or a serialized \
              side channel, no matter what the cloaking DP computed. Route the \
              value through a sanitizer (`BulkPolicy`, `CloakingPolicy`, an \
              anonymize entry point) or suppress at the sink with a reason \
              explaining why the flow stays inside the trust boundary.",
        deep: true,
    },
    LintDef {
        name: "determinism-taint",
        severity: Severity::Error,
        summary: "nondeterministic sources must not reach serialized/fingerprinted output (--deep)",
        doc: "Interprocedural generalization of no-hashmap-in-serialized-output: \
              HashMap/HashSet iteration order, wall-clock reads, and thread ids \
              (the [determinism-taint] sources in lint-taint.toml) must not flow \
              — directly or through calls — into serialized snapshots, golden \
              fingerprints, or WAL bytes. Sort first (`sort*`, BTreeMap/BTreeSet \
              collection are sanitizers) or suppress with a reason proving the \
              order cannot reach the bytes.",
        deep: true,
    },
    LintDef {
        name: MALFORMED_PRAGMA,
        severity: Severity::Error,
        summary: "suppression pragmas must name a known lint and carry a reason",
        doc: "The pragma grammar is `// lbs-lint: allow(<lint>[, <lint>…], \
              reason = \"…\")`. A pragma without a non-empty reason, or naming an \
              unregistered lint, is itself an error — suppressions are audited.",
        deep: false,
    },
    LintDef {
        name: UNUSED_SUPPRESSION,
        severity: Severity::Warn,
        summary: "pragma suppresses nothing (stale after a fix?)",
        doc: "The annotated code no longer triggers the named lint; delete the \
              pragma so the suppression inventory stays honest.",
        deep: false,
    },
];

/// Looks up a lint by name.
pub fn find(name: &str) -> Option<&'static LintDef> {
    LINTS.iter().find(|l| l.name == name)
}

/// Whether `name` is a deep-only lint (fires only under `--deep`).
pub fn is_deep(name: &str) -> bool {
    find(name).is_some_and(|l| l.deep)
}

/// The names of every deep (interprocedural) pass, in registry order.
pub fn deep_lint_names() -> Vec<&'static str> {
    LINTS.iter().filter(|l| l.deep).map(|l| l.name).collect()
}
