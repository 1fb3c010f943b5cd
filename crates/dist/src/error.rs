//! Typed errors for the distributed training plane.

use std::fmt;
use std::io;

/// Everything that can go wrong on the dist plane, typed so callers (and
/// the chaos suite) can distinguish a stalled generation from a torn frame
/// from a shape mismatch.
#[derive(Debug)]
pub enum DistError {
    /// Transport-level failure (connect, read, write, torn frame).
    Io(io::Error),
    /// The peer spoke the framing but not the dist protocol (unknown
    /// opcode, truncated field, version mismatch, out-of-order message).
    Protocol(String),
    /// A rollout segment failed to decode (corrupt payload, bad
    /// compression stream, dimension mismatch against the header).
    Codec(String),
    /// Parameter broadcast or checkpoint (de)serialization failed.
    Params(String),
    /// The learner waited out its generation deadline with shards still
    /// missing. Carries exactly which env indices never arrived, so "no
    /// silent sample loss" is checkable: either every shard landed or the
    /// missing ones are named here.
    GenerationStalled {
        /// The generation that failed to complete.
        generation: u64,
        /// Env indices whose segments never arrived.
        missing: Vec<u32>,
    },
    /// The worker's environment produced observations whose shape does not
    /// match the broadcast parameters, or a submitted segment does not fit
    /// the learner's fleet — a misconfigured or faulty worker, not a
    /// transient.
    ShapeMismatch(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "dist transport error: {e}"),
            DistError::Protocol(msg) => write!(f, "dist protocol violation: {msg}"),
            DistError::Codec(msg) => write!(f, "rollout segment codec error: {msg}"),
            DistError::Params(msg) => write!(f, "parameter broadcast error: {msg}"),
            DistError::GenerationStalled { generation, missing } => write!(
                f,
                "generation {generation} stalled: {} shard(s) missing ({missing:?})",
                missing.len()
            ),
            DistError::ShapeMismatch(msg) => write!(f, "worker/learner shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_generation_names_every_missing_shard() {
        let e = DistError::GenerationStalled { generation: 7, missing: vec![2, 5] };
        let msg = e.to_string();
        assert!(msg.contains("generation 7"), "{msg}");
        assert!(msg.contains("2 shard(s)"), "{msg}");
        assert!(msg.contains("[2, 5]"), "{msg}");
    }

    #[test]
    fn io_errors_keep_their_source() {
        let e = DistError::from(io::Error::new(io::ErrorKind::ConnectionReset, "boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("boom"));
    }
}
