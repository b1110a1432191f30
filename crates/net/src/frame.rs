//! Length-prefixed framing over a byte stream.
//!
//! Every request and response is a **correlation-id frame**
//! ([`write_frame_v2`]/[`read_frame_v2`]): a 4-byte big-endian payload
//! length, then an 8-byte big-endian correlation id, then the payload.
//! The id lets one TCP connection carry many in-flight requests: the
//! server answers each frame whenever its job completes — out of order —
//! and the client matches responses back by id.
//!
//! The id-less form ([`write_frame`]/[`read_frame`]: the length, then the
//! payload) carries only what is said before correlation ids apply: the
//! HELLO exchange that opens every connection (see
//! [`crate::msg::hello_frame`]) and the daemon's refusal of a connection
//! it will not serve.
//!
//! In both forms the length counts **payload bytes only** and is
//! validated against a configured cap **before any allocation**, so a
//! malicious peer sending `FF FF FF FF` cannot make the receiver reserve
//! 4 GiB — it gets an error (and, server-side, an error frame and a
//! closed connection) instead. Writers emit header + payload in a single
//! vectored write, so a frame costs one syscall, not two.

use std::io::{ErrorKind, IoSlice, Read, Write};

use crate::error::NetError;

/// Default maximum frame size: 8 MiB. Generous for every social-puzzles
/// payload (puzzles are kilobytes; objects are bounded by what a client
/// chooses to share) while still bounding per-connection memory.
pub const DEFAULT_MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Bytes of the length header (the whole header of an id-less frame).
pub const FRAME_HEADER_LEN: usize = 4;

/// Bytes of the correlation id.
pub const CORRELATION_LEN: usize = 8;

/// Bytes of framing overhead per correlation-id frame (length + id).
pub const FRAME_V2_HEADER_LEN: usize = FRAME_HEADER_LEN + CORRELATION_LEN;

/// Writes every byte of `bufs` with vectored writes (one syscall per
/// iteration on sockets), advancing across partial writes.
fn write_all_vectored(w: &mut impl Write, header: &[u8], payload: &[u8]) -> Result<(), NetError> {
    // Fast path: most writes take the whole frame in one call.
    let mut written = 0usize;
    let total = header.len() + payload.len();
    while written < total {
        let bufs: [IoSlice<'_>; 2] = if written < header.len() {
            [IoSlice::new(&header[written..]), IoSlice::new(payload)]
        } else {
            [IoSlice::new(&payload[written - header.len()..]), IoSlice::new(&[])]
        };
        match w.write_vectored(&bufs) {
            Ok(0) => return Err(NetError::Io(ErrorKind::WriteZero.into())),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes one id-less frame as a single vectored write (header + payload
/// in one syscall on the happy path).
///
/// # Errors
///
/// Returns [`NetError::FrameTooLarge`] when the payload exceeds
/// `max_frame` (checked before any byte is written, so the stream is
/// left clean), or [`NetError::Io`] on socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: u32) -> Result<(), NetError> {
    if payload.len() as u64 > u64::from(max_frame) {
        return Err(NetError::FrameTooLarge { len: payload.len() as u64, max: max_frame });
    }
    let header = (payload.len() as u32).to_be_bytes();
    write_all_vectored(w, &header, payload)
}

/// Writes one correlation-id frame: length, correlation id, payload —
/// one vectored write.
///
/// # Errors
///
/// As [`write_frame`].
pub fn write_frame_v2(
    w: &mut impl Write,
    correlation: u64,
    payload: &[u8],
    max_frame: u32,
) -> Result<(), NetError> {
    if payload.len() as u64 > u64::from(max_frame) {
        return Err(NetError::FrameTooLarge { len: payload.len() as u64, max: max_frame });
    }
    let mut header = [0u8; FRAME_V2_HEADER_LEN];
    header[..FRAME_HEADER_LEN].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[FRAME_HEADER_LEN..].copy_from_slice(&correlation.to_be_bytes());
    write_all_vectored(w, &header, payload)
}

/// Reads one id-less frame. Returns `Ok(None)` on clean EOF *at a frame
/// boundary* (the peer hung up between frames — normal connection
/// teardown).
///
/// # Errors
///
/// Returns [`NetError::FrameTooLarge`] when the header claims more than
/// `max_frame` bytes — detected before any allocation — or
/// [`NetError::Io`] on socket failure / EOF mid-frame.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Vec<u8>>, NetError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header);
    if len > max_frame {
        return Err(NetError::FrameTooLarge { len: u64::from(len), max: max_frame });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Reads one correlation-id frame: `Ok(Some((correlation, payload)))`,
/// or `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// As [`read_frame`]; EOF inside the correlation id is
/// [`NetError::Closed`].
pub fn read_frame_v2(
    r: &mut impl Read,
    max_frame: u32,
) -> Result<Option<(u64, Vec<u8>)>, NetError> {
    let mut header = [0u8; FRAME_V2_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header[..FRAME_HEADER_LEN].try_into().expect("fixed len"));
    let correlation = u64::from_be_bytes(header[FRAME_HEADER_LEN..].try_into().expect("fixed len"));
    if len > max_frame {
        return Err(NetError::FrameTooLarge { len: u64::from(len), max: max_frame });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((correlation, payload)))
}

/// Fills `buf` completely, returning `Ok(false)` if EOF arrived before
/// the *first* byte (clean close) and an error if it arrived mid-fill.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(NetError::Closed),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversize_is_rejected_before_allocation() {
        // A header claiming u32::MAX bytes with nothing behind it: if the
        // length were trusted, the vec![0; 4 GiB] allocation would
        // happen (and read_exact would then block/fail). The cap check
        // must fire first.
        let mut r = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        match read_frame(&mut r, 1024).unwrap_err() {
            NetError::FrameTooLarge { len, max } => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other}"),
        }
    }

    #[test]
    fn write_side_enforces_the_cap_too() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &[0u8; 100], 99).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { len: 100, max: 99 }));
        assert!(buf.is_empty(), "nothing written for a rejected frame");
        write_frame(&mut buf, &[0u8; 99], 99).unwrap();
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 99);
    }

    #[test]
    fn exactly_max_frame_is_accepted() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 64], 64).unwrap();
        let got = read_frame(&mut Cursor::new(buf), 64).unwrap().unwrap();
        assert_eq!(got, vec![7u8; 64]);
    }

    #[test]
    fn v2_roundtrip_carries_the_correlation_id() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 7, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame_v2(&mut buf, u64::MAX, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = Cursor::new(buf);
        let (corr, payload) = read_frame_v2(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!((corr, payload.as_slice()), (7, &b"hello"[..]));
        let (corr, payload) = read_frame_v2(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!((corr, payload.as_slice()), (u64::MAX, &b""[..]));
        assert!(read_frame_v2(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn v2_layout_is_len_then_correlation_then_payload() {
        // The length counts payload bytes only — not the correlation id —
        // so a v2 frame is exactly 12 bytes of header plus the payload.
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 0x0102_0304_0506_0708, b"ab", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(buf.len(), FRAME_V2_HEADER_LEN + 2);
        assert_eq!(&buf[..4], &2u32.to_be_bytes());
        assert_eq!(&buf[4..12], &0x0102_0304_0506_0708u64.to_be_bytes());
        assert_eq!(&buf[12..], b"ab");
    }

    #[test]
    fn v2_oversize_and_truncation_are_rejected() {
        // Hostile length before any allocation.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        evil.extend_from_slice(&1u64.to_be_bytes());
        match read_frame_v2(&mut Cursor::new(evil), 1024).unwrap_err() {
            NetError::FrameTooLarge { len, max } => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other}"),
        }
        // Write side enforces the cap too, leaving the stream clean.
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame_v2(&mut buf, 1, &[0u8; 100], 99).unwrap_err(),
            NetError::FrameTooLarge { len: 100, max: 99 }
        ));
        assert!(buf.is_empty());
        // EOF inside the correlation id is a mid-frame close, not clean.
        let mut r = Cursor::new(vec![0u8; 6]);
        assert!(matches!(read_frame_v2(&mut r, 1024).unwrap_err(), NetError::Closed));
        // EOF inside the payload errors too.
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 3, b"abcdef", 1024).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(read_frame_v2(&mut Cursor::new(buf), 1024).unwrap_err(), NetError::Io(_)));
    }

    /// A writer that accepts at most `n` bytes per call, exercising the
    /// partial-write continuation of the vectored path.
    struct Trickle {
        out: Vec<u8>,
        per_call: usize,
    }
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.per_call);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_writes_survive_partial_progress() {
        for per_call in [1, 2, 3, 5, 64] {
            let mut w = Trickle { out: Vec::new(), per_call };
            write_frame(&mut w, b"partial progress", DEFAULT_MAX_FRAME).unwrap();
            let got = read_frame(&mut Cursor::new(w.out), DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(got, b"partial progress");

            let mut w = Trickle { out: Vec::new(), per_call };
            write_frame_v2(&mut w, 42, b"partial progress", DEFAULT_MAX_FRAME).unwrap();
            let (corr, got) =
                read_frame_v2(&mut Cursor::new(w.out), DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!((corr, got.as_slice()), (42, &b"partial progress"[..]));
        }
    }

    #[test]
    fn truncation_mid_header_and_mid_payload_error() {
        // Header cut short.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut r, 1024).unwrap_err(), NetError::Closed));
        // Payload cut short.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef", 1024).unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, 1024).unwrap_err(), NetError::Io(_)));
    }
}
