//! Trace persistence: save generated workloads so experiments can be
//! replayed bit-for-bit without regenerating, and so external traces can
//! be imported in the same format.
//!
//! Format: one JSON document per file, `{ "connections": [...],
//! "mailbox_count": n, "span": ns }` with IPs as dotted strings — diffable
//! and greppable, at the cost of size (use scaled traces for archival).

use crate::Trace;
use std::fmt;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Error loading or saving a trace archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file did not contain a valid trace.
    Format(String),
    /// The decoded trace violated its invariants.
    Invalid(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "trace archive i/o error: {e}"),
            ArchiveError::Format(e) => write!(f, "invalid trace archive format: {e}"),
            ArchiveError::Invalid(e) => write!(f, "trace violates invariants: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> ArchiveError {
        ArchiveError::Io(e)
    }
}

impl Trace {
    /// Serializes the trace as JSON to a writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn save_json<W: Write>(&self, writer: W) -> Result<(), ArchiveError> {
        serde_json::to_writer(BufWriter::new(writer), self)
            .map_err(|e| ArchiveError::Format(e.to_string()))
    }

    /// Deserializes a trace from JSON, validating invariants (arrival
    /// order, mailbox-id ranges) before returning it.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Format`] for malformed JSON; [`ArchiveError::Invalid`]
    /// if the decoded trace breaks its invariants.
    pub fn load_json<R: Read>(reader: R) -> Result<Trace, ArchiveError> {
        let trace: Trace = serde_json::from_reader(BufReader::new(reader))
            .map_err(|e| ArchiveError::Format(e.to_string()))?;
        // Re-validate: archives may come from outside this process.
        let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| trace.validate()));
        match check {
            Ok(()) => Ok(trace),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_else(|| "unknown invariant".to_owned());
                Err(ArchiveError::Invalid(msg))
            }
        }
    }

    /// Saves to a file path.
    ///
    /// # Errors
    ///
    /// See [`Trace::save_json`].
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), ArchiveError> {
        self.save_json(std::fs::File::create(path)?)
    }

    /// Loads from a file path.
    ///
    /// # Errors
    ///
    /// See [`Trace::load_json`].
    pub fn load_file(path: impl AsRef<Path>) -> Result<Trace, ArchiveError> {
        Trace::load_json(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may read clock and env (DESIGN.md §9)
mod tests {
    use super::*;
    use crate::bounce_sweep_trace;

    #[test]
    fn json_roundtrip_preserves_trace() {
        let t = bounce_sweep_trace(3, 200, 0.3, 50);
        let mut buf = Vec::new();
        t.save_json(&mut buf).unwrap();
        let back = Trace::load_json(buf.as_slice()).unwrap();
        assert_eq!(back.connections, t.connections);
        assert_eq!(back.mailbox_count, t.mailbox_count);
        assert_eq!(back.span, t.span);
    }

    #[test]
    fn file_roundtrip() {
        let t = bounce_sweep_trace(4, 50, 0.5, 50);
        let path = std::env::temp_dir().join(format!(
            "spamaware-trace-{}-{:x}.json",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        t.save_file(&path).unwrap();
        let back = Trace::load_file(&path).unwrap();
        assert_eq!(back.connections.len(), 50);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn malformed_json_is_a_format_error() {
        let err = Trace::load_json(&b"{not json"[..]).unwrap_err();
        assert!(matches!(err, ArchiveError::Format(_)), "{err}");
    }

    #[test]
    fn invariant_violations_are_rejected_on_load() {
        // Valid JSON, invalid trace: recipient id out of range.
        let json = r#"{
            "connections": [{
                "arrival": 0,
                "client_ip": "1.2.3.4",
                "kind": {"Mail": [{"valid_rcpts": [99], "invalid_rcpts": 0, "size": 10, "spam": false}]}
            }],
            "mailbox_count": 10,
            "span": 1000
        }"#;
        let err = Trace::load_json(json.as_bytes()).unwrap_err();
        assert!(matches!(err, ArchiveError::Invalid(_)), "{err}");
    }

    #[test]
    fn ips_serialize_as_dotted_strings() {
        let t = bounce_sweep_trace(5, 3, 0.0, 50);
        let mut buf = Vec::new();
        t.save_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("client_ip"), "{text}");
        let ip = t.connections[0].client_ip.to_string();
        assert!(text.contains(&format!("\"{ip}\"")), "ip not dotted: {text}");
    }
}
