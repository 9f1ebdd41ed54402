//! The length-prefixed binary frame layer.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! u32 LE   len       bytes that follow (header + body + checksum)
//! u16 LE   version   protocol version (PROTO_V1)
//! u16 LE   code      opcode (requests) / response tag (responses)
//! u64 LE   request id (echoed back in the response)
//! u32 LE   tenant id
//! ...      body      op-specific payload (labbase `enc` encoding)
//! u32 LE   checksum  FNV-1a over [version .. body] — the WAL's codec
//! ```
//!
//! Every way a frame can go wrong — truncation, an oversized length
//! prefix, a checksum mismatch, an unknown version, a mid-frame
//! disconnect or stall — is a *typed* [`WireError`], never a panic and
//! never a hung connection: reads and writes run against socket
//! timeouts and give up with [`WireError::Stalled`] after a bounded
//! number of mid-frame timeout ticks.
//!
//! Both ends of a connection wait the same way: a [`SpinSocket`] polls
//! for [`SPIN_BUDGET`] before it parks in one blocking call, so the
//! short gaps inside a station visit cost no thread wake-up, and a
//! [`FrameReader`] takes each arrival in one `read` into a reused
//! buffer and parses frames in place. [`read_event`] and
//! [`encode_frame`] are the owned-frame forms of the same code.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use labflow_storage::fnv1a;

/// Protocol version 1 (the only one).
pub const PROTO_V1: u16 = 1;

/// Hard bound on `len`: no frame exceeds 1 MiB on the wire.
pub const MAX_FRAME: usize = 1 << 20;

/// Fixed header past the length prefix: version + code + request id +
/// tenant id.
pub const HDR: usize = 2 + 2 + 8 + 4;

/// Trailing checksum width.
pub const CRC: usize = 4;

/// Mid-frame stall budget: consecutive socket-timeout ticks tolerated
/// once a frame has started arriving (or draining) before the peer is
/// declared stalled. With the default 50 ms socket timeout this is a
/// ~10 s patience window.
pub const MAX_STALL_TICKS: u32 = 200;

/// Everything that can go wrong at the frame layer.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The peer disconnected mid-frame: `got` of `want` bytes arrived.
    Truncated {
        /// Bytes received before the disconnect.
        got: usize,
        /// Bytes the frame header promised.
        want: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`] (or is too short to hold
    /// the fixed header and checksum).
    BadLength(u32),
    /// The trailing FNV-1a checksum does not match the frame contents.
    BadChecksum {
        /// Checksum carried by the frame.
        got: u32,
        /// Checksum recomputed over the received bytes.
        want: u32,
    },
    /// The frame declares a protocol version this build does not speak.
    BadVersion(u16),
    /// The body failed to decode against the declared opcode.
    Decode(String),
    /// The peer stopped making progress mid-frame (send or receive) for
    /// longer than the stall budget.
    Stalled,
    /// A non-timeout I/O error from the socket.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { got, want } => {
                write!(f, "frame truncated: {got} of {want} bytes")
            }
            WireError::BadLength(n) => write!(f, "bad frame length {n}"),
            WireError::BadChecksum { got, want } => {
                write!(f, "frame checksum mismatch: got {got:#010x}, want {want:#010x}")
            }
            WireError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            WireError::Decode(msg) => write!(f, "frame body malformed: {msg}"),
            WireError::Stalled => write!(f, "peer stalled mid-frame"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Protocol version (always [`PROTO_V1`] after a successful read).
    pub version: u16,
    /// Opcode (requests) or response tag (responses).
    pub code: u16,
    /// Request id, echoed in the response.
    pub request_id: u64,
    /// Tenant the request bills to.
    pub tenant: u32,
    /// Op-specific payload.
    pub body: Vec<u8>,
}

/// Outcome of one read attempt at a frame boundary.
#[derive(Debug)]
pub enum Event {
    /// A complete, verified frame.
    Frame(Frame),
    /// The socket timed out while *idle* (no frame in progress): the
    /// caller should check its stop flags and try again.
    Idle,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// How long a wait on a connection polls before it parks.
///
/// The gaps *inside* a station visit are what a wait should ride out
/// without a thread wake-up: the server answers the visit's requests
/// in a few µs to ~35 µs (traced `record_step` p99 is 33 µs on a
/// cache-resident store), and a client thinks for a few µs between
/// them. A loopback round trip whose ends both block pays two
/// wake-ups (28–30 µs on a 2-vCPU host, against 13–15 µs when both
/// ends poll). The gaps *between* visits (0.5 ms at 2,000 visits/s,
/// seconds on a lab floor) are not worth polling for: past the budget
/// the wait parks in one blocking call under the socket's timeout tick.
pub const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// A connection's socket with spin-then-park waits, for use through
/// [`FrameReader`] and [`write_all_bounded`].
///
/// The socket is non-blocking at rest (the owner sets that once, with
/// its read and write timeout ticks). A read that finds nothing polls
/// the socket, yielding the thread between polls, for [`SPIN_BUDGET`];
/// then it switches the socket to blocking for one read under the
/// timeout tick and back. A write that finds the send buffer full
/// parks at once. So the only `WouldBlock` / `TimedOut` a caller ever
/// sees is a full timeout tick: the stall budget and the idle tick keep
/// their meaning, and a poll that came back empty never counts as one.
///
/// A park that times out turns spinning off until data arrives again,
/// so an idle connection costs no more than one wake-up per tick.
pub struct SpinSocket<'a> {
    stream: &'a TcpStream,
    spin: bool,
}

impl<'a> SpinSocket<'a> {
    /// Wait on `stream`, which the caller has made non-blocking.
    pub fn new(stream: &'a TcpStream) -> SpinSocket<'a> {
        SpinSocket { stream, spin: true }
    }

    /// Run `op` on the socket in blocking mode (one timeout tick at
    /// most), then make the socket non-blocking again.
    fn park<T>(
        &self,
        op: impl FnOnce(&mut &TcpStream) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        self.stream.set_nonblocking(false)?;
        let result = op(&mut &*self.stream);
        self.stream.set_nonblocking(true)?;
        result
    }
}

impl Read for SpinSocket<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.spin {
            let until = Instant::now() + SPIN_BUDGET;
            loop {
                match (&mut &*self.stream).read(buf) {
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    done => return done,
                }
                if Instant::now() >= until {
                    break;
                }
                std::thread::yield_now();
            }
        }
        let parked = self.park(|s| s.read(buf));
        self.spin = !matches!(&parked, Err(e) if is_timeout(e));
        parked
    }
}

impl Write for SpinSocket<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match (&mut &*self.stream).write(buf) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => self.park(|s| s.write(buf)),
            done => done,
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A verified frame borrowed from a [`FrameReader`]'s buffer: valid
/// until the reader's next call. Its version is [`PROTO_V1`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameView<'a> {
    /// Opcode (requests) or response tag (responses).
    pub code: u16,
    /// Request id, echoed in the response.
    pub request_id: u64,
    /// Tenant the request bills to.
    pub tenant: u32,
    /// Op-specific payload.
    pub body: &'a [u8],
}

impl FrameView<'_> {
    /// Bytes the frame took on the wire, length prefix included.
    pub fn wire_len(&self) -> usize {
        4 + HDR + self.body.len() + CRC
    }

    /// An owned copy.
    pub fn to_frame(&self) -> Frame {
        Frame {
            version: PROTO_V1,
            code: self.code,
            request_id: self.request_id,
            tenant: self.tenant,
            body: self.body.to_vec(),
        }
    }
}

/// Capacity a [`FrameReader`] starts with and shrinks back to after a
/// larger frame: a read takes whatever has arrived up to this much.
const READ_CHUNK: usize = 16 * 1024;

/// One connection's receive side: a reused buffer that each `read`
/// fills with whatever has arrived (one frame, part of one, or
/// several), and frames parsed in place out of it.
///
/// Every fault is the same typed [`WireError`] as [`read_event`]'s, and
/// a timeout counts the same way: idle between frames, a stall tick
/// within one.
pub struct FrameReader {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// Read past the current frame (a connection's reader) or never
    /// (the one-shot reader behind [`read_event`], which must leave the
    /// next frame in its source).
    greedy: bool,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader for one connection.
    pub fn new() -> FrameReader {
        FrameReader { buf: vec![0; READ_CHUNK], start: 0, end: 0, greedy: true }
    }

    /// Drop buffered bytes (the connection they came from is gone).
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// Read the next frame. `Ok(None)` is a timeout tick with no frame
    /// in progress (nothing buffered): the caller should check its stop
    /// flags and call again.
    pub fn next(&mut self, r: &mut impl Read) -> Result<Option<FrameView<'_>>, WireError> {
        if self.start == self.end && self.buf.len() > READ_CHUNK {
            self.buf.truncate(READ_CHUNK);
            self.buf.shrink_to_fit();
        }
        if !self.fill(r, 4)? {
            return Ok(None);
        }
        let prefix = self.buf.get(self.start..self.start + 4);
        let len = u32::from_le_bytes(prefix.and_then(|b| b.try_into().ok()).unwrap_or([0; 4]));
        let lenu = len as usize;
        if !(HDR + CRC..=MAX_FRAME).contains(&lenu) {
            return Err(WireError::BadLength(len));
        }
        self.fill(r, 4 + lenu)?;
        let at = self.start + 4;
        self.start = at + lenu;
        if self.start == self.end {
            self.reset();
        }
        parse_payload(self.buf.get(at..at + lenu).unwrap_or(&[])).map(Some)
    }

    /// Buffer at least `need` bytes past `start`, tolerating up to
    /// [`MAX_STALL_TICKS`] timeout ticks in a row. Returns `false` when
    /// a read times out with nothing buffered (idle, not a stall).
    fn fill(&mut self, r: &mut impl Read, need: usize) -> Result<bool, WireError> {
        let mut stalls = 0u32;
        while self.end - self.start < need {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
            let stop = if self.greedy { self.buf.len() } else { need };
            match r.read(self.buf.get_mut(self.end..stop).unwrap_or(&mut [])) {
                Ok(0) if self.end == 0 => return Err(WireError::Closed),
                Ok(0) => return Err(WireError::Truncated { got: self.end, want: need }),
                Ok(n) => {
                    self.end += n;
                    stalls = 0;
                }
                Err(e) if is_timeout(&e) => {
                    if self.end == 0 {
                        return Ok(false);
                    }
                    stalls += 1;
                    if stalls > MAX_STALL_TICKS {
                        return Err(WireError::Stalled);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        Ok(true)
    }
}

/// Read one frame, and nothing past it. A timeout before any byte
/// arrives returns [`Event::Idle`]; every fault is a typed
/// [`WireError`].
pub fn read_event(r: &mut impl Read) -> Result<Event, WireError> {
    let mut one = FrameReader { buf: Vec::with_capacity(64), start: 0, end: 0, greedy: false };
    Ok(match one.next(r)? {
        None => Event::Idle,
        Some(view) => Event::Frame(view.to_frame()),
    })
}

/// Verify and split a received payload (everything after the length
/// prefix) in place.
fn parse_payload(payload: &[u8]) -> Result<FrameView<'_>, WireError> {
    let crc_at = payload.len().saturating_sub(CRC);
    let (content, crc_bytes) = payload.split_at(crc_at);
    let got = u32::from_le_bytes(crc_bytes.try_into().unwrap_or([0; 4]));
    let want = fnv1a(content);
    if got != want {
        return Err(WireError::BadChecksum { got, want });
    }
    let mut rd = labbase::enc::Reader::new(content);
    let version = read_u16(&mut rd)?;
    let code = read_u16(&mut rd)?;
    let request_id = rd.u64().map_err(|e| WireError::Decode(e.to_string()))?;
    let tenant = rd.u32().map_err(|e| WireError::Decode(e.to_string()))?;
    if version != PROTO_V1 {
        return Err(WireError::BadVersion(version));
    }
    let body = content.get(HDR..).unwrap_or(&[]);
    Ok(FrameView { code, request_id, tenant, body })
}

/// The `enc` reader has no u16 primitive; frames store u16s as two raw
/// little-endian bytes.
fn read_u16(rd: &mut labbase::enc::Reader<'_>) -> Result<u16, WireError> {
    let lo = rd.u8().map_err(|e| WireError::Decode(e.to_string()))?;
    let hi = rd.u8().map_err(|e| WireError::Decode(e.to_string()))?;
    Ok(u16::from_le_bytes([lo, hi]))
}

/// Append one [`PROTO_V1`] frame to `out`: the header, whatever `body`
/// appends, and the checksum. Returns the frame's wire length. A frame
/// past [`MAX_FRAME`] leaves `out` as it was and fails with
/// [`WireError::BadLength`].
pub fn encode_into(
    out: &mut Vec<u8>,
    code: u16,
    request_id: u64,
    tenant: u32,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<usize, WireError> {
    encode_versioned(out, PROTO_V1, code, request_id, tenant, body)
}

fn encode_versioned(
    out: &mut Vec<u8>,
    version: u16,
    code: u16,
    request_id: u64,
    tenant: u32,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<usize, WireError> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&code.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&tenant.to_le_bytes());
    body(out);
    let len = out.len() - at - 4 + CRC;
    if len > MAX_FRAME {
        out.truncate(at);
        return Err(WireError::BadLength(len as u32));
    }
    let crc = fnv1a(out.get(at + 4..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
    if let Some(prefix) = out.get_mut(at..at + 4) {
        prefix.copy_from_slice(&(len as u32).to_le_bytes());
    }
    Ok(4 + len)
}

/// Serialize a frame to wire bytes (length prefix included). Fails with
/// [`WireError::BadLength`] if the body would exceed [`MAX_FRAME`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(4 + HDR + frame.body.len() + CRC);
    let (v, code, id, tenant) = (frame.version, frame.code, frame.request_id, frame.tenant);
    encode_versioned(&mut out, v, code, id, tenant, |o| o.extend_from_slice(&frame.body))?;
    Ok(out)
}

/// Write pre-encoded wire bytes, tolerating up to [`MAX_STALL_TICKS`]
/// timeout ticks of backpressure before declaring the peer stalled.
pub fn write_all_bounded(w: &mut impl Write, mut bytes: &[u8]) -> Result<(), WireError> {
    let mut stalls = 0u32;
    while !bytes.is_empty() {
        match w.write(bytes) {
            Ok(0) => return Err(WireError::Io(ErrorKind::WriteZero.into())),
            Ok(n) => {
                bytes = bytes.get(n..).unwrap_or(&[]);
                stalls = 0;
            }
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MAX_STALL_TICKS {
                    return Err(WireError::Stalled);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Frame {
        Frame {
            version: PROTO_V1,
            code: 7,
            request_id: 42,
            tenant: 3,
            body: b"payload".to_vec(),
        }
    }

    fn read_one(bytes: &[u8]) -> Result<Event, WireError> {
        read_event(&mut Cursor::new(bytes))
    }

    #[test]
    fn round_trip() {
        let bytes = encode_frame(&sample()).unwrap();
        match read_one(&bytes).unwrap() {
            Event::Frame(f) => assert_eq!(f, sample()),
            Event::Idle => panic!("unexpected idle"),
        }
    }

    #[test]
    fn clean_close_between_frames_is_typed() {
        assert!(matches!(read_one(&[]), Err(WireError::Closed)));
    }

    #[test]
    fn truncated_length_prefix_is_typed() {
        // Two of the four length bytes, then disconnect.
        let err = read_one(&[0x10, 0x00]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { got: 2, want: 4 }), "{err}");
    }

    #[test]
    fn mid_frame_disconnect_is_typed() {
        let bytes = encode_frame(&sample()).unwrap();
        // Cut the frame in half after the length prefix.
        let cut = 4 + (bytes.len() - 4) / 2;
        let err = read_one(&bytes[..cut]).unwrap_err();
        match err {
            WireError::Truncated { got, want } => {
                assert_eq!(got, cut);
                assert_eq!(want, bytes.len());
            }
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_typed() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(read_one(&bytes), Err(WireError::BadLength(_))));
    }

    #[test]
    fn undersized_length_prefix_is_typed() {
        // A frame too short to hold even the header and checksum.
        let bytes = 4u32.to_le_bytes().to_vec();
        assert!(matches!(read_one(&bytes), Err(WireError::BadLength(4))));
    }

    #[test]
    fn bad_checksum_is_typed() {
        let mut bytes = encode_frame(&sample()).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert!(matches!(read_one(&bytes), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn corrupt_body_fails_the_checksum_not_the_decoder() {
        let mut bytes = encode_frame(&sample()).unwrap();
        bytes[10] ^= 0x01;
        assert!(matches!(read_one(&bytes), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut f = sample();
        f.version = 9;
        let bytes = encode_frame(&f).unwrap();
        assert!(matches!(read_one(&bytes), Err(WireError::BadVersion(9))));
    }

    #[test]
    fn oversized_body_refused_at_encode() {
        let f = Frame { body: vec![0u8; MAX_FRAME], ..sample() };
        assert!(matches!(encode_frame(&f), Err(WireError::BadLength(_))));
    }

    #[test]
    fn empty_body_round_trips() {
        let f = Frame { body: Vec::new(), ..sample() };
        let bytes = encode_frame(&f).unwrap();
        match read_one(&bytes).unwrap() {
            Event::Frame(g) => assert_eq!(g, f),
            Event::Idle => panic!("unexpected idle"),
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let mut bytes = encode_frame(&sample()).unwrap();
        let second = Frame { request_id: 43, ..sample() };
        bytes.extend(encode_frame(&second).unwrap());
        let mut cur = Cursor::new(bytes.as_slice());
        match read_event(&mut cur).unwrap() {
            Event::Frame(f) => assert_eq!(f.request_id, 42),
            Event::Idle => panic!("unexpected idle"),
        }
        match read_event(&mut cur).unwrap() {
            Event::Frame(f) => assert_eq!(f.request_id, 43),
            Event::Idle => panic!("unexpected idle"),
        }
        assert!(matches!(read_event(&mut cur), Err(WireError::Closed)));
    }

    /// A scripted source: each step is one `read`'s worth of bytes or
    /// one timeout tick; past the script, end of stream.
    enum Step {
        Bytes(Vec<u8>),
        Tick,
    }

    struct Script {
        steps: std::collections::VecDeque<Step>,
        reads: usize,
    }

    impl Script {
        fn new(steps: Vec<Step>) -> Script {
            Script { steps: steps.into(), reads: 0 }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Step::Tick) => Err(ErrorKind::WouldBlock.into()),
                Some(Step::Bytes(mut b)) => {
                    let n = b.len().min(buf.len());
                    buf[..n].copy_from_slice(&b[..n]);
                    if n < b.len() {
                        self.steps.push_front(Step::Bytes(b.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn ids(reader: &mut FrameReader, src: &mut impl Read) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            match reader.next(src) {
                Ok(Some(f)) => {
                    assert_eq!(f.body, b"payload");
                    out.push(f.request_id);
                }
                Ok(None) => {}
                Err(WireError::Closed) => return out,
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    fn frames(n: u64) -> Vec<u8> {
        (0..n)
            .flat_map(|i| encode_frame(&Frame { request_id: 42 + i, ..sample() }).unwrap())
            .collect()
    }

    #[test]
    fn frame_reader_takes_a_frame_split_at_every_byte_boundary() {
        let bytes = frames(2);
        for cut in 1..bytes.len() {
            let mut src = Script::new(vec![
                Step::Bytes(bytes[..cut].to_vec()),
                Step::Bytes(bytes[cut..].to_vec()),
            ]);
            assert_eq!(ids(&mut FrameReader::new(), &mut src), vec![42, 43], "cut at {cut}");
        }
    }

    #[test]
    fn frame_reader_takes_several_frames_from_one_read() {
        let mut src = Script::new(vec![Step::Bytes(frames(3))]);
        let mut reader = FrameReader::new();
        assert_eq!(ids(&mut reader, &mut src), vec![42, 43, 44]);
        assert_eq!(src.reads, 2, "one read for three frames, one to see the close");
    }

    #[test]
    fn frame_reader_reports_faults_like_read_event() {
        let bytes = encode_frame(&sample()).unwrap();
        let cut = bytes.len() - 3;
        let mut src = Script::new(vec![Step::Bytes(bytes[..cut].to_vec())]);
        match FrameReader::new().next(&mut src) {
            Err(WireError::Truncated { got, want }) => assert_eq!((got, want), (cut, bytes.len())),
            other => panic!("expected Truncated, got {other:?}"),
        }
        let oversized = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        let mut src = Script::new(vec![Step::Bytes(oversized)]);
        assert!(matches!(FrameReader::new().next(&mut src), Err(WireError::BadLength(_))));
    }

    #[test]
    fn a_tick_between_frames_is_idle_and_within_one_is_a_stall() {
        let bytes = encode_frame(&sample()).unwrap();
        let paused = |ticks: u32| {
            let mut steps = vec![Step::Tick, Step::Bytes(bytes[..7].to_vec())];
            steps.extend((0..ticks).map(|_| Step::Tick));
            steps.push(Step::Bytes(bytes[7..].to_vec()));
            Script::new(steps)
        };
        let mut reader = FrameReader::new();
        let mut src = paused(MAX_STALL_TICKS);
        assert!(matches!(reader.next(&mut src), Ok(None)), "a tick between frames is idle");
        match reader.next(&mut src) {
            Ok(Some(f)) => assert_eq!(f.request_id, 42),
            other => panic!("a pause within the budget must not stall: {other:?}"),
        }
        let mut reader = FrameReader::new();
        let mut src = paused(MAX_STALL_TICKS + 1);
        assert!(matches!(reader.next(&mut src), Ok(None)));
        assert!(matches!(reader.next(&mut src), Err(WireError::Stalled)));
    }

    #[test]
    fn frame_reader_reset_drops_buffered_bytes() {
        let bytes = frames(2);
        let first = encode_frame(&sample()).unwrap().len();
        // The first frame and a stub of the second arrive; the
        // connection is then replaced.
        let mut src = Script::new(vec![Step::Bytes(bytes[..first + 5].to_vec())]);
        let mut reader = FrameReader::new();
        assert!(matches!(reader.next(&mut src), Ok(Some(_))));
        reader.reset();
        let mut fresh = Script::new(vec![Step::Bytes(encode_frame(&sample()).unwrap())]);
        assert_eq!(ids(&mut reader, &mut fresh), vec![42]);
    }

    #[test]
    fn encode_into_appends_the_same_bytes_as_encode_frame() {
        let mut out = b"prior".to_vec();
        let n = encode_into(&mut out, 7, 42, 3, |o| o.extend_from_slice(b"payload")).unwrap();
        assert_eq!(&out[..5], b"prior");
        assert_eq!(out[5..], encode_frame(&sample()).unwrap()[..]);
        assert_eq!(n, out.len() - 5);
        let big = encode_into(&mut out, 7, 42, 3, |o| o.resize(o.len() + MAX_FRAME, 0));
        assert!(matches!(big, Err(WireError::BadLength(_))));
        assert_eq!(out.len(), 5 + n, "a refused frame leaves the buffer as it was");
    }

    /// Over a real socket: a peer that pauses mid-frame for many spin
    /// budgets, and then for several whole timeout ticks, is waited out
    /// — an empty non-blocking poll never counts as a tick.
    #[test]
    fn spin_socket_waits_out_a_peer_pausing_mid_frame() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        sock.set_nonblocking(true).unwrap();
        let bytes = frames(2);
        let writer = std::thread::spawn(move || {
            peer.write_all(&bytes[..9]).unwrap();
            std::thread::sleep(Duration::from_millis(15));
            peer.write_all(&bytes[9..30]).unwrap();
            std::thread::sleep(Duration::from_millis(90));
            peer.write_all(&bytes[30..]).unwrap();
            peer
        });
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        while got.len() < 2 {
            match reader.next(&mut SpinSocket::new(&sock)) {
                Ok(Some(f)) => got.push(f.request_id),
                Ok(None) => {}
                Err(e) => panic!("a pausing peer is not stalled: {e}"),
            }
        }
        assert_eq!(got, vec![42, 43]);
        drop(writer.join().unwrap());
        assert!(matches!(reader.next(&mut SpinSocket::new(&sock)), Err(WireError::Closed)));
    }
}
