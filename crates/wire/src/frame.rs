//! Length-prefixed framing over any `Read`/`Write` pair.

use crate::codec::WireError;
use std::io::{self, Read, Write};

/// Hard upper bound on a single frame (16 MiB): bounds allocation driven by
/// untrusted length prefixes and comfortably fits the largest chunk batches.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Errors while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Socket/file error.
    Io(io::Error),
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Frame exceeded [`MAX_FRAME`].
    TooLarge(usize),
    /// Message body failed to parse.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Wire(e) => write!(f, "frame body error: {e}"),
        }
    }
}

impl FrameError {
    /// True when this error is a socket deadline expiry (`SO_RCVTIMEO` /
    /// `SO_SNDTIMEO` fired), as opposed to a dead or misbehaving peer.
    /// Timeouts are the signal the failover machinery treats as "peer
    /// unavailable": a hung-but-alive node must look like a dead one.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Bytes of a frame's length prefix: what a caller that assembles a frame
/// in its own buffer leaves free at the front ([`write_frame_in`]).
pub const PREFIX_LEN: usize = 4;

/// Writes one frame: `u32 le length || body`.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), FrameError> {
    if body.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(body.len()));
    }
    let mut frame = Vec::with_capacity(PREFIX_LEN + body.len());
    frame.extend_from_slice(&[0; PREFIX_LEN]);
    frame.extend_from_slice(body);
    write_frame_in(w, &mut frame)
}

/// Writes the frame whose body is `frame[PREFIX_LEN..]`, filling in the
/// prefix. Prefix and body go out as one slice: written apart, a body a
/// buffered writer will not hold (8 KiB) costs a `write(2)` — and, under
/// `TCP_NODELAY`, a segment — for the four prefix bytes alone.
pub fn write_frame_in<W: Write>(w: &mut W, frame: &mut [u8]) -> Result<(), FrameError> {
    let Some((prefix, body)) = frame.split_first_chunk_mut::<PREFIX_LEN>() else {
        return Err(FrameError::Io(io::ErrorKind::InvalidInput.into()));
    };
    if body.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(body.len()));
    }
    *prefix = (body.len() as u32).to_le_bytes();
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns [`FrameError::Closed`] on clean EOF before the
/// length prefix.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean close (0 bytes) from a torn prefix.
    let mut got = 0usize;
    while got < 4 {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            return if got == 0 {
                Err(FrameError::Closed)
            } else {
                Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()))
            };
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[9u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"first");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap(), vec![9u8; 1000]);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    /// Accepts whatever it is handed and counts the calls: what a socket
    /// under `TCP_NODELAY` sends as segments.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_whatever_its_size() {
        for len in [100, 8 << 10, 1 << 20] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let wire = [&(len as u32).to_le_bytes()[..], &body].concat();
            // Straight to the socket, as the transport writes; and behind
            // a `BufWriter`, where prefix and body written apart split.
            let mut direct = CountingWrite::default();
            write_frame(&mut direct, &body).unwrap();
            assert_eq!((direct.writes, &direct.bytes), (1, &wire), "{len} B");
            let mut frame = [&[0xAA; PREFIX_LEN][..], &body].concat();
            let mut buffered = io::BufWriter::new(CountingWrite::default());
            write_frame_in(&mut buffered, &mut frame).unwrap();
            let sink = buffered.get_ref();
            assert_eq!((sink.writes, &sink.bytes), (1, &wire), "{len} B buffered");
        }
        // A buffer too short to hold a prefix is refused, not indexed.
        let mut sink = CountingWrite::default();
        assert!(write_frame_in(&mut sink, &mut [0; 3]).is_err());
        assert_eq!(sink.writes, 0);
    }

    #[test]
    fn oversized_frame_rejected_on_write() {
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut buf, &huge),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn oversized_prefix_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn torn_prefix_is_io_error_not_closed() {
        let mut cur = Cursor::new(vec![1u8, 0]); // 2 of 4 length bytes
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    #[test]
    fn torn_body_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }
}
