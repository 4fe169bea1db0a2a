//! The byte codec of model artifacts, and atomic file replacement.
//!
//! * [`fnv64`] — the FNV-1a 64-bit checksum, a no-dependency integrity
//!   check over a payload;
//! * [`put_u64`] / [`put_f64`] / [`Reader`] — little-endian encoding in
//!   which every `f64` travels as its raw IEEE-754 bits, so a decoded
//!   value is bit-for-bit the one that was encoded;
//! * [`atomic_write`] — temp file, `fsync`, atomic rename, directory
//!   `fsync`: readers see the old file or the complete new one, never a
//!   partial write.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit checksum of `bytes`.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Appends a `u64` (little-endian).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw bits (little-endian).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A [`Reader`] ran out of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value being read.
    ShortRead,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::ShortRead => write!(f, "record payload too short"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the payload's first byte.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::ShortRead`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(WireError::ShortRead)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    ///
    /// [`WireError::ShortRead`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Writes `bytes` to `path` crash-consistently: temp file in the same
/// directory, `fsync`, atomic rename over the destination, then `fsync`
/// of the parent directory (so the rename itself is durable). Readers
/// observe either the old content or the new — never a partial write.
///
/// # Errors
///
/// Propagates filesystem errors; the temp file is removed on failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&parent)?;
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("atomic_write target has no file name"))?;
    let tmp = parent.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Make the rename durable. Directories cannot be fsynced on every
        // platform; failure to open or sync the directory is non-fatal
        // for correctness (the rename is already atomic), so ignore it.
        if let Ok(dir) = File::open(&parent) {
            let _ = dir.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("simkit_wire_aw_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out.txt");
        atomic_write(&path, b"v1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        atomic_write(&path, b"version-2").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"version-2");
        // No temp litter.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_round_trips_bits() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, 1.0 / 3.0);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), 1.0 / 3.0);
        assert!(r.exhausted());
        assert_eq!(r.u64(), Err(WireError::ShortRead));
    }
}
