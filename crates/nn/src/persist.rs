//! Corruption-safe persistence primitives shared by checkpoints and the
//! CSQ training snapshots.
//!
//! Two guarantees, both needed by long-running training campaigns:
//!
//! 1. **Atomicity** — [`atomic_write`] writes to a temporary file in the
//!    destination directory, fsyncs it, then renames it over the target.
//!    A crash mid-write leaves either the old file or the new file, never
//!    a torn mixture.
//! 2. **Integrity** — [`write_checksummed`] frames the payload with a
//!    header carrying a CRC32 and the payload length;
//!    [`read_checksummed`] rejects truncated or bit-flipped files with a
//!    [`PersistError`] instead of handing garbage to the deserializer.
//!
//! The CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) is
//! hand-rolled so the workspace stays free of new external crates.

use std::io::Write;
use std::path::Path;

/// Magic prefix of the checksummed framing. The trailing `1` is the
/// framing version; bump it if the header layout ever changes.
pub const MAGIC: &[u8] = b"CSQF1 ";

/// CRC32 lookup table for the reflected IEEE polynomial, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Computes the CRC32 (IEEE) of `bytes`.
///
/// # Example
///
/// ```
/// // Standard test vector: crc32(b"123456789") == 0xCBF43926.
/// assert_eq!(csq_nn::persist::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Error reading a checksummed file.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the expected magic/header.
    MissingHeader,
    /// The payload is shorter than the header's declared length
    /// (truncated write or partial copy).
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header (bit rot or a
    /// corrupted transfer).
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        actual: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::MissingHeader => {
                write!(f, "file is not in the checksummed CSQF1 format")
            }
            PersistError::Truncated { expected, actual } => write!(
                f,
                "file truncated: header declares {expected} payload bytes, found {actual}"
            ),
            PersistError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header {expected:#010x}, payload {actual:#010x} — \
                 file is corrupted"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<PersistError> for std::io::Error {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other),
        }
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory →
/// `fsync` → rename. A crash at any point leaves either the previous file
/// or the complete new one.
///
/// # Errors
///
/// Propagates filesystem errors from create/write/sync/rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Atomically writes `payload` to `path` framed with a CRC32 header:
/// `CSQF1 <crc32-hex> <payload-len>\n<payload>`.
///
/// # Errors
///
/// Propagates filesystem errors from [`atomic_write`].
pub fn write_checksummed(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let header = format!(
        "{}{:08x} {}\n",
        String::from_utf8_lossy(MAGIC),
        crc32(payload),
        payload.len()
    );
    let mut framed = Vec::with_capacity(header.len() + payload.len());
    framed.extend_from_slice(header.as_bytes());
    framed.extend_from_slice(payload);
    atomic_write(path, &framed)
}

/// Whether `bytes` carry the checksummed framing header.
pub fn is_checksummed(bytes: &[u8]) -> bool {
    bytes.starts_with(MAGIC)
}

/// Parses and verifies a checksummed byte buffer, returning the payload.
///
/// # Errors
///
/// [`PersistError::MissingHeader`] when the framing is absent or
/// malformed, [`PersistError::Truncated`] / `ChecksumMismatch` when the
/// payload fails verification.
pub fn verify_checksummed(bytes: &[u8]) -> Result<&[u8], PersistError> {
    if !is_checksummed(bytes) {
        return Err(PersistError::MissingHeader);
    }
    let rest = &bytes[MAGIC.len()..];
    let newline = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(PersistError::MissingHeader)?;
    let header = std::str::from_utf8(&rest[..newline]).map_err(|_| PersistError::MissingHeader)?;
    let mut parts = header.split(' ');
    let crc_hex = parts.next().ok_or(PersistError::MissingHeader)?;
    let len_dec = parts.next().ok_or(PersistError::MissingHeader)?;
    let expected_crc = u32::from_str_radix(crc_hex, 16).map_err(|_| PersistError::MissingHeader)?;
    let expected_len: usize = len_dec.parse().map_err(|_| PersistError::MissingHeader)?;
    let payload = &rest[newline + 1..];
    if payload.len() != expected_len {
        return Err(PersistError::Truncated {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(PersistError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(payload)
}

/// Reads `path` and verifies the checksummed framing, returning the
/// payload.
///
/// # Errors
///
/// [`PersistError`] on i/o failure, missing framing, truncation or
/// checksum mismatch.
pub fn read_checksummed(path: &Path) -> Result<Vec<u8>, PersistError> {
    let bytes = std::fs::read(path)?;
    verify_checksummed(&bytes).map(<[u8]>::to_vec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("csq_persist_{name}_{}", std::process::id()))
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trip() {
        let path = tmp("roundtrip");
        write_checksummed(&path, b"hello snapshot").unwrap();
        let back = read_checksummed(&path).unwrap();
        assert_eq!(back, b"hello snapshot");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_detected() {
        let path = tmp("trunc");
        write_checksummed(&path, b"some payload that will be cut").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = read_checksummed(&path).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_detected() {
        let path = tmp("flip");
        write_checksummed(&path, b"payload under protection").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checksummed(&path).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_detected() {
        let path = tmp("nohdr");
        std::fs::write(&path, b"just some bytes").unwrap();
        let err = read_checksummed(&path).unwrap_err();
        assert!(matches!(err, PersistError::MissingHeader), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_existing() {
        let path = tmp("atomic");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_chain_composes() {
        // PersistError converts into io::Error and exposes source().
        let err: std::io::Error = PersistError::MissingHeader.into();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = PersistError::Io(std::io::Error::other("x"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
