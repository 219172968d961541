//! Run provenance for benchmark reports.

use std::path::Path;

/// Best-effort git revision of the checkout at `workspace_root`, read
/// straight from `.git` (no subprocess, no git dependency): follows
/// `HEAD` to a loose ref, then falls back to `packed-refs`, then to
/// `"unknown"`.
pub fn git_rev(workspace_root: &Path) -> String {
    let git = workspace_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the file is the hash itself.
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
        return hash.trim().to_string();
    }
    if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(refname) {
                return hash.trim().to_string();
            }
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_handles_missing_repo() {
        let dir = std::env::temp_dir().join("lbs-bench-no-git");
        let _ = std::fs::create_dir_all(&dir);
        assert_eq!(git_rev(&dir), "unknown");
    }
}
