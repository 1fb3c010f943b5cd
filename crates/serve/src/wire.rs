//! Length-prefixed frame I/O and the fixed-width field codec shared by
//! every TCP protocol in the stack.
//!
//! Both the serving protocol ([`crate::protocol`]) and the distributed
//! training protocol (`agsc-dist`) speak the same framing: a `u32`
//! little-endian payload length followed by the payload. This module is the
//! only code that reads or writes frames, and the only code that encodes
//! or decodes fixed-width little-endian fields ([`Put`], [`Reader`]), so
//! the wire formats cannot drift apart.
//!
//! The default cap [`MAX_FRAME_BYTES`] (1 MiB) bounds every serving frame; a
//! protocol that moves bigger payloads (parameter broadcasts, rollout
//! segments) passes its own ceiling through the `_capped` variants. The cap
//! exists so a corrupt or hostile length prefix can never drive a giant
//! allocation; [`Reader::count`] does the same for counts declared inside a
//! payload. Every TCP stream either protocol opens or accepts goes through
//! [`setup_stream`] first.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard ceiling on a serving-frame payload: large enough for any realistic
/// observation vector, small enough that a corrupt length prefix cannot
/// trigger a giant allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The socket setup every TCP stream of both protocols gets, on both ends:
/// `TCP_NODELAY`. [`write_frame_capped`] writes a frame as two segments,
/// the length prefix and then the payload. With Nagle's algorithm on, the
/// payload waits for the peer to ACK the prefix, and the peer delays that
/// ACK (up to 40 ms on Linux), so every small request/response exchange
/// would stall for the delayed-ACK timer.
pub fn setup_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// [`write_frame_capped`] under the default serving cap.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_capped(w, payload, MAX_FRAME_BYTES)
}

/// Write one length-prefixed frame, failing with
/// [`io::ErrorKind::InvalidInput`] when the payload exceeds `cap` — the
/// sender-side mirror of the reader's allocation guard.
pub fn write_frame_capped(w: &mut impl Write, payload: &[u8], cap: usize) -> io::Result<()> {
    if payload.len() > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds cap {cap}", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame under the default serving cap. A clean EOF
/// before the first length byte returns `Ok(None)` (the peer hung up between
/// frames); EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_capped(r, MAX_FRAME_BYTES)
}

/// [`read_frame`] with an explicit payload ceiling: a declared length above
/// `cap` is an [`io::ErrorKind::InvalidData`] error before any allocation.
pub fn read_frame_capped(r: &mut impl Read, cap: usize) -> io::Result<Option<Vec<u8>>> {
    read_frame_phased(r, cap, |_| {})
}

/// [`read_frame_capped`] with a hook that runs once, right after the first
/// byte of a frame arrives. The server uses it to split its deadlines: the
/// idle deadline bounds the wait for a frame to start, and the hook swaps
/// in the frame deadline for the rest.
pub(crate) fn read_frame_phased<R: Read>(
    r: &mut R,
    cap: usize,
    started: impl FnOnce(&mut R),
) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no next frame" from "torn frame": read the first byte
    // separately so a clean close is not an error.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    started(r);
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {cap} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Whether an I/O error is a socket deadline firing.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Appends little-endian fields to a payload.
pub trait Put {
    /// Append a `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append an `f32`, bit-exactly.
    fn put_f32(&mut self, v: f32);
    /// Append an `f64`, bit-exactly.
    fn put_f64(&mut self, v: f64);
}

impl Put for Vec<u8> {
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Why a payload's fields failed to decode. Each protocol maps this into
/// its own typed error in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the advertised fields did.
    Truncated {
        /// Offset of the field that did not fit.
        at: usize,
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes left at `at`.
        have: usize,
    },
    /// Bytes were left over after the last field.
    Trailing(usize),
    /// A declared count needs more than the caller's byte cap.
    Oversize {
        /// Bytes the count declares.
        declared: usize,
        /// The cap it exceeds.
        cap: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at, wanted, have } => {
                write!(f, "truncated: wanted {wanted} bytes at offset {at}, have {have}")
            }
            DecodeError::Trailing(n) => write!(f, "has {n} trailing bytes"),
            DecodeError::Oversize { declared, cap } => {
                write!(f, "declares {declared} bytes, over the {cap} byte cap")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads little-endian fields off a payload, front to back.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(DecodeError::Truncated { at: self.pos, wanted: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `f32`, bit-exactly.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.array().map(f32::from_le_bytes)
    }

    /// The next `f64`, bit-exactly.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Check a declared count of `n` items of `item_bytes` each before
    /// anything is allocated for them. Every item counts as at least one
    /// byte, so zero-width items cannot declare billions of rows. More
    /// than `cap` bytes is [`DecodeError::Oversize`]; more than the bytes
    /// left is [`DecodeError::Truncated`].
    pub fn count(&self, n: u32, item_bytes: usize, cap: usize) -> Result<usize, DecodeError> {
        let n = n as usize;
        let declared = n.saturating_mul(item_bytes.max(1));
        if declared > cap {
            return Err(DecodeError::Oversize { declared, cap });
        }
        let have = self.buf.len() - self.pos;
        if declared > have {
            return Err(DecodeError::Truncated { at: self.pos, wanted: declared, have });
        }
        Ok(n)
    }

    /// Everything not yet read.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Fail unless every byte was read.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_capped_paths() {
        let mut wire = Vec::new();
        write_frame_capped(&mut wire, b"hello", 16).unwrap();
        write_frame_capped(&mut wire, b"", 16).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame_capped(&mut r, 16).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame_capped(&mut r, 16).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame_capped(&mut r, 16).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn write_cap_is_a_hard_error() {
        let mut wire = Vec::new();
        let err = write_frame_capped(&mut wire, &[0u8; 17], 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "nothing may hit the wire on a refused frame");
        let err = write_frame(&mut wire, &vec![0u8; MAX_FRAME_BYTES + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "the serving writer holds the same cap");
    }

    #[test]
    fn read_cap_rejects_oversize_prefixes_per_protocol() {
        // A frame legal for a big-payload protocol must still be refused by
        // a reader holding the small serving cap.
        let mut wire = Vec::new();
        write_frame_capped(&mut wire, &vec![7u8; MAX_FRAME_BYTES + 1], 1 << 26).unwrap();
        let mut r = &wire[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut r = &wire[..];
        let got = read_frame_capped(&mut r, 1 << 26).unwrap().expect("frame");
        assert_eq!(got.len(), MAX_FRAME_BYTES + 1);
    }

    #[test]
    fn torn_capped_frame_is_an_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame_capped(&mut wire, b"payload", 64).unwrap();
        let mut r = &wire[..wire.len() - 2];
        let err = read_frame_capped(&mut r, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn the_phase_hook_runs_once_per_started_frame_only() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"ab").unwrap();
        let mut r = &wire[..];
        let mut started = 0;
        assert!(read_frame_phased(&mut r, 16, |_| started += 1).unwrap().is_some());
        assert_eq!(read_frame_phased(&mut r, 16, |_| started += 1).unwrap(), None);
        assert_eq!(started, 1, "a clean close between frames never starts one");
    }

    #[test]
    fn fields_round_trip_bit_exactly() {
        let mut buf = vec![7u8];
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 1);
        buf.put_f32(-0.0);
        buf.put_f64(f64::MIN_POSITIVE);
        buf.extend_from_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok((-0.0f32).to_bits()));
        assert_eq!(r.f64(), Ok(f64::MIN_POSITIVE));
        assert_eq!(r.rest(), b"tail");
    }

    #[test]
    fn short_and_long_payloads_fail_typed() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated { at: 0, wanted: 4, have: 3 }));
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(DecodeError::Trailing(2)));
    }

    #[test]
    fn declared_counts_are_bounded_by_the_cap_and_the_bytes_left() {
        let r = Reader::new(&[0u8; 8]);
        assert_eq!(r.count(2, 4, 64), Ok(2));
        assert_eq!(r.count(3, 4, 64), Err(DecodeError::Truncated { at: 0, wanted: 12, have: 8 }));
        assert_eq!(r.count(17, 4, 64), Err(DecodeError::Oversize { declared: 68, cap: 64 }));
        // Zero-width items still cost a byte each in the bound.
        assert_eq!(r.count(8, 0, 64), Ok(8));
        assert!(r.count(u32::MAX, 0, usize::MAX).is_err());
    }
}
