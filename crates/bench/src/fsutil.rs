//! Crash-consistent result-file I/O.
//!
//! Every `results/` artifact a binary emits — CSV series, JSON records —
//! goes through [`atomic_write_in`]: a plain `std::fs::write` truncates
//! the destination before writing, so a kill (or full disk) mid-emission
//! destroys the previous good copy. The helper uses
//! [`simkit::wire::atomic_write`] (temp file in the target directory,
//! fsync, atomic rename, parent-directory fsync), so readers only ever
//! observe the old content or the complete new content.

use std::path::{Path, PathBuf};

/// Atomically writes `<dir>/<name>`, creating `dir` as needed, and
/// returns the path.
///
/// # Errors
///
/// Propagates filesystem errors; on failure the previous file (if any)
/// is left untouched.
pub fn atomic_write_in(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    simkit::wire::atomic_write(&path, contents.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survives_overwrite_and_creates_dirs() {
        let dir = std::env::temp_dir()
            .join(format!("spark_moe_fsutil_{}", std::process::id()))
            .join("nested");
        let path = atomic_write_in(&dir, "out.json", "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        atomic_write_in(&dir, "out.json", "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
