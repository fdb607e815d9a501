//! The wire format: length-framed, checksummed, versioned.
//!
//! Every frame is a fixed 40-byte header followed by `len` payload
//! bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      "PDCN"
//!      4     2  version    wire protocol version (little-endian, = 1)
//!      6     1  kind       FrameKind discriminant
//!      7     1  flags      bit 0 overtake, bit 1 retransmit
//!      8     4  src        sender's rank (world rank for control
//!                          frames; *group* rank within comm_id for
//!                          Data — the link itself identifies the
//!                          sending process)
//!     12     4  tag        message tag (i32; meaningful for Data)
//!     16     8  comm_id    destination communicator (Data)
//!     24     8  ack_id     delivery-ack correlation id (Data/Ack)
//!     32     4  len        payload length in bytes
//!     36     4  crc32      IEEE CRC-32 over bytes 0..36 + payload
//! ```
//!
//! All integers are little-endian. A frame that fails any validation —
//! bad magic, unknown version or kind, oversized length, checksum
//! mismatch — poisons the connection it arrived on: the reader treats
//! the stream as corrupt and tears the link down rather than trying to
//! resynchronize, and the reconnect/failure-detection machinery takes
//! over. That is the honest response on a byte stream: once framing is
//! lost there is no reliable way back in.

use std::io::{self, Read, Write};

use bytes::Bytes;

/// `"PDCN"` — the frame magic.
pub const WIRE_MAGIC: [u8; 4] = *b"PDCN";

/// Wire protocol version. Bumped on any incompatible layout change;
/// peers with mismatched versions refuse each other at handshake.
pub const WIRE_VERSION: u16 = 1;

/// Refuse absurd frames before allocating for them.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

const HEADER_LEN: usize = 40;
const FLAG_OVERTAKE: u8 = 1 << 0;
const FLAG_RETRANSMIT: u8 = 1 << 1;

/// What a frame is for; the discriminant is the header's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Handshake, dialer → acceptor: payload is a JSON [`Hello`].
    Hello = 0,
    /// Rendezvous reply, rank 0 → joiner: payload is a JSON [`Welcome`].
    Welcome = 1,
    /// One `pdc-mpc` message (the only kind fault injection touches).
    Data = 2,
    /// Delivery ack: `ack_id` echoes a Data frame matched by a receive.
    Ack = 3,
    /// Keepalive, sent on idle links; feeds the failure detector.
    Heartbeat = 4,
    /// Crash notice: `src` announces its own (cooperative) death.
    Dead = 5,
    /// Graceful goodbye: the peer is done; its silence is not a death.
    Bye = 6,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => FrameKind::Hello,
            1 => FrameKind::Welcome,
            2 => FrameKind::Data,
            3 => FrameKind::Ack,
            4 => FrameKind::Heartbeat,
            5 => FrameKind::Dead,
            6 => FrameKind::Bye,
            _ => return None,
        })
    }
}

/// One wire frame. [`Frame::read_from`] yields an owned `Vec<u8>`
/// payload and a link's read buffer a `Bytes` one; a sender may frame
/// any byte buffer (`Frame<Bytes>` encodes straight from a
/// message's shared payload, with no intermediate copy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<P = Vec<u8>> {
    /// What the frame is for.
    pub kind: FrameKind,
    /// Sender's rank: world rank for control frames (Hello, Dead, …),
    /// group rank within `comm_id` for Data frames — on an established
    /// link the peer's process identity is known from the connection,
    /// so Data frames spend the field on what the receiver's
    /// `Status::source` must report.
    pub src: u32,
    /// Message tag (Data frames).
    pub tag: i32,
    /// Destination communicator id (Data frames).
    pub comm_id: u64,
    /// Ack correlation id (Data: ack requested; Ack: the echo).
    pub ack_id: u64,
    /// Deliver ahead of queued traffic (injected reordering).
    pub overtake: bool,
    /// Control-plane retransmission: exempt from fault injection.
    pub retransmit: bool,
    /// Payload bytes.
    pub payload: P,
}

impl Frame {
    /// A bare frame of `kind` from world rank `src`, no payload.
    pub fn control(kind: FrameKind, src: u32) -> Self {
        Self {
            kind,
            src,
            tag: 0,
            comm_id: 0,
            ack_id: 0,
            overtake: false,
            retransmit: false,
            payload: Vec::new(),
        }
    }

    /// Read and validate one frame from a stream, reading exactly its
    /// bytes (the handshake reads this way, so nothing after the frame
    /// is consumed). An `UnexpectedEof` before the first header byte is
    /// a clean close; anywhere else it is a truncated frame. Validation
    /// failures come back as `InvalidData` errors naming the failed check.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let len = check_header(&header)?;
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Frame::assemble(&header, payload)
    }
}

impl<P: AsRef<[u8]>> Frame<P> {
    /// Check a frame's checksum and assemble it from a header that
    /// passed [`check_header`]; the one decoder behind
    /// [`Frame::read_from`] and [`FrameBuf`].
    fn assemble(header: &[u8; HEADER_LEN], payload: P) -> io::Result<Frame<P>> {
        let kind = FrameKind::from_u8(header[6]).ok_or_else(|| bad("unknown frame kind"))?;
        let flags = header[7];
        let want_crc = u32::from_le_bytes(header[36..40].try_into().unwrap());
        let got_crc = !crc32_update(
            crc32_update(CRC_INIT, &header[..HEADER_LEN - 4]),
            payload.as_ref(),
        );
        if got_crc != want_crc {
            return Err(bad("frame checksum mismatch"));
        }
        Ok(Frame {
            kind,
            src: u32::from_le_bytes(header[8..12].try_into().unwrap()),
            tag: i32::from_le_bytes(header[12..16].try_into().unwrap()),
            comm_id: u64::from_le_bytes(header[16..24].try_into().unwrap()),
            ack_id: u64::from_le_bytes(header[24..32].try_into().unwrap()),
            overtake: flags & FLAG_OVERTAKE != 0,
            retransmit: flags & FLAG_RETRANSMIT != 0,
            payload,
        })
    }

    /// Serialize into one write-ready buffer.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload.as_ref();
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        buf.push(self.kind as u8);
        let mut flags = 0u8;
        if self.overtake {
            flags |= FLAG_OVERTAKE;
        }
        if self.retransmit {
            flags |= FLAG_RETRANSMIT;
        }
        buf.push(flags);
        buf.extend_from_slice(&self.src.to_le_bytes());
        buf.extend_from_slice(&self.tag.to_le_bytes());
        buf.extend_from_slice(&self.comm_id.to_le_bytes());
        buf.extend_from_slice(&self.ack_id.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = !crc32_update(crc32_update(CRC_INIT, &buf), payload);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Encode and write this frame, flushing the stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }
}

pub(crate) fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Check a header's magic, version, kind and length as soon as it has
/// arrived, before anything is read or allocated for its payload, and
/// return the payload length.
fn check_header(header: &[u8; HEADER_LEN]) -> io::Result<usize> {
    if header[0..4] != WIRE_MAGIC {
        return Err(bad("bad frame magic"));
    }
    if u16::from_le_bytes([header[4], header[5]]) != WIRE_VERSION {
        return Err(bad("unsupported wire version"));
    }
    if FrameKind::from_u8(header[6]).is_none() {
        return Err(bad("unknown frame kind"));
    }
    let len = u32::from_le_bytes(header[32..36].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(bad("frame payload too large"));
    }
    Ok(len as usize)
}

/// Room a fresh [`FrameBuf`] has: ample for the small frames most
/// traffic is made of; a larger frame grows it.
const BUF_LEN: usize = 8 * 1024;

/// Bytes read off a link but not yet decoded. It travels with the link's
/// read side, so whichever thread reads next continues a frame another
/// thread began; each `fill` reads as much as the buffer holds, so a
/// small frame (or several) usually costs one `read`.
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    /// Undecoded bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        Self {
            buf: vec![0; BUF_LEN],
            start: 0,
            end: 0,
        }
    }
}

impl FrameBuf {
    /// Decode the next whole frame buffered, or `None` until all of its
    /// bytes have arrived. The payload is copied once, out of the buffer.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Frame<Bytes>>> {
        let Some(header) = self.header() else {
            return Ok(None);
        };
        let end = self.start + HEADER_LEN + check_header(&header)?;
        if end > self.end {
            return Ok(None);
        }
        let payload = Bytes::copy_from_slice(&self.buf[self.start + HEADER_LEN..end]);
        let frame = Frame::assemble(&header, payload)?;
        self.start = end;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            // A giant frame's room is not kept for the small ones after it.
            if self.buf.len() > 16 * BUF_LEN {
                self.buf = vec![0; BUF_LEN];
            }
        }
        Ok(Some(frame))
    }

    /// One `read` from `src` into the free space, after making room for
    /// the whole of the frame being assembled. Returns the bytes read;
    /// 0 is the end of the stream. Bytes already buffered are kept
    /// whatever the read returns.
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        let need = match self.header() {
            Some(header) => HEADER_LEN + check_header(&header)?,
            None => HEADER_LEN,
        };
        if self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The buffered header of the next frame, once all of it is here.
    fn header(&self) -> Option<[u8; HEADER_LEN]> {
        self.buf[self.start..self.end]
            .first_chunk::<HEADER_LEN>()
            .copied()
    }
}

/// Handshake payload: who is dialing, and for which session.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Hello {
    /// Session id both sides must agree on (derived from the launch).
    pub session: u64,
    /// Dialer's world rank.
    pub rank: u32,
    /// Dialer's world size (rank 0 verifies agreement at rendezvous).
    pub np: u32,
    /// Dialer's own listen address, for the rendezvous address book.
    pub listen: String,
}

/// Rendezvous reply: the address book, one listen address per rank.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Welcome {
    /// Session id (echoed).
    pub session: u64,
    /// `addrs[r]` is rank r's listen address.
    pub addrs: Vec<String>,
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8: eight tables built at compile time
// fold eight bytes per step; a bytewise tail handles the rest.
// ---------------------------------------------------------------------

const CRC_INIT: u32 = 0xFFFF_FFFF;

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` and then `k`
/// zero bytes; `CRC_TABLES[0]` is the classic one-byte table.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 64 {
            c = (c >> 1) ^ (0xEDB8_8320 * (c & 1));
            bit += 1;
            if bit % 8 == 0 {
                t[bit / 8 - 1][b] = c;
            }
        }
        b += 1;
    }
    t
};

/// Fold `data` into a running CRC register (start from [`CRC_INIT`];
/// the CRC is the register's complement).
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().unwrap()) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, k| {
            acc ^ CRC_TABLES[7 - k][(v >> (8 * k)) as u8 as usize]
        });
    }
    for &b in words.remainder() {
        crc = CRC_TABLES[0][usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 of one buffer (exposed for tests and tools).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(CRC_INIT, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame() -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 3,
            tag: 42,
            comm_id: 7,
            ack_id: 99,
            overtake: true,
            retransmit: true,
            payload: b"hello, wire".to_vec(),
        }
    }

    /// Bit-at-a-time CRC-32, independent of the tables.
    fn crc32_update_bitwise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    #[test]
    fn sliced_crc_matches_bitwise_reference() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 167 + 13) as u8).collect();
        // Every length 0..=70 (each tail length, several whole words),
        // from every start offset mod 8.
        for start in 0..8 {
            for len in 0..=70 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32_update(CRC_INIT, slice),
                    crc32_update_bitwise(CRC_INIT, slice),
                    "start {start}, len {len}"
                );
            }
        }
        // Split across two calls, as `encode` and `read_from` fold the
        // header and then the payload.
        for split in [0, 1, 7, 8, 9, 36, 40, 63] {
            let (head, tail) = data[..70].split_at(split);
            assert_eq!(
                crc32_update(crc32_update(CRC_INIT, head), tail),
                crc32_update_bitwise(CRC_INIT, &data[..70]),
                "split at {split}"
            );
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_all_kinds() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Welcome,
            FrameKind::Data,
            FrameKind::Ack,
            FrameKind::Heartbeat,
            FrameKind::Dead,
            FrameKind::Bye,
        ] {
            let mut f = data_frame();
            f.kind = kind;
            let bytes = f.encode();
            let back = Frame::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = data_frame().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Frame::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn corrupt_header_detected() {
        // Magic.
        let mut bytes = data_frame().encode();
        bytes[0] = b'X';
        assert!(Frame::read_from(&mut bytes.as_slice()).is_err());
        // Version.
        let mut bytes = data_frame().encode();
        bytes[4] = 0xFF;
        assert!(Frame::read_from(&mut bytes.as_slice()).is_err());
        // Kind.
        let mut bytes = data_frame().encode();
        bytes[6] = 200;
        assert!(Frame::read_from(&mut bytes.as_slice()).is_err());
        // A header-field flip (tag) lands on the checksum.
        let mut bytes = data_frame().encode();
        bytes[12] ^= 0x10;
        let err = Frame::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_frame_is_eof() {
        let bytes = data_frame().encode();
        let cut = &bytes[..bytes.len() - 3];
        let err = Frame::read_from(&mut &cut[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let a = Frame::control(FrameKind::Heartbeat, 1);
        let b = data_frame();
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut cursor = bytes.as_slice();
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), a);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), b);
    }

    /// A reader that hands out one byte per `read`, and `WouldBlock`
    /// (a socket read timeout) before every other byte.
    struct Trickle<'a> {
        bytes: &'a [u8],
        stall: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let Some((&b, rest)) = self.bytes.split_first() else {
                return Ok(0);
            };
            buf[0] = b;
            self.bytes = rest;
            Ok(1)
        }
    }

    /// Decode frames off `src` into `out` until `stop` frames are out,
    /// retrying stalls, as a link's reader does.
    fn drain(fb: &mut FrameBuf, src: &mut impl Read, out: &mut Vec<Frame<Bytes>>, stop: usize) {
        while out.len() < stop {
            if let Some(f) = fb.next_frame().unwrap() {
                out.push(f);
                continue;
            }
            match fb.fill(src) {
                Ok(n) => assert!(n > 0, "stream ended early"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
    }

    #[test]
    fn frame_buf_decodes_a_trickle_across_a_hand_over() {
        let big = Frame {
            payload: (0..70_000u32).map(|i| (i * 7) as u8).collect(),
            ..data_frame()
        };
        let frames = [
            Frame::control(FrameKind::Heartbeat, 1),
            data_frame(),
            big,
            Frame::control(FrameKind::Bye, 2),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut src = Trickle {
            bytes: &wire,
            stall: false,
        };
        let mut fb = FrameBuf::default();
        let mut got = Vec::new();
        // The first owner decodes two frames and reads 50 bytes into the
        // third (larger than a fresh buffer), then the buffer moves to
        // another thread, as a link's read side does between the reader
        // pump and a rank.
        drain(&mut fb, &mut src, &mut got, 2);
        for _ in 0..100 {
            let _ = fb.fill(&mut src);
        }
        assert!(fb.next_frame().unwrap().is_none(), "mid-frame");
        let n = frames.len();
        let (got, rest) = std::thread::scope(|s| {
            s.spawn(move || {
                let mut got = got;
                drain(&mut fb, &mut src, &mut got, n);
                (got, src.bytes.len())
            })
            .join()
            .unwrap()
        });
        assert_eq!(rest, 0);
        assert_eq!(got.len(), frames.len());
        for (g, f) in got.iter().zip(&frames) {
            assert_eq!(g.encode(), f.encode(), "{:?}", f.kind);
        }
        // Back-to-back frames read whole come out of one `fill`.
        let mut fb = FrameBuf::default();
        let mut whole = &wire[..];
        let mut got = Vec::new();
        drain(&mut fb, &mut whole, &mut got, frames.len());
        assert_eq!(got.len(), frames.len());
    }

    #[test]
    fn frame_buf_refuses_a_bad_header_before_its_payload() {
        let mut bytes = data_frame().encode();
        bytes[0] = b'X';
        let mut fb = FrameBuf::default();
        fb.fill(&mut &bytes[..super::HEADER_LEN]).unwrap();
        let err = fb.next_frame().unwrap_err();
        assert!(err.to_string().contains("magic"));
        let mut huge = data_frame().encode();
        huge[32..36].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut fb = FrameBuf::default();
        fb.fill(&mut &huge[..]).unwrap();
        assert!(fb.next_frame().is_err());
        assert!(fb.fill(&mut &huge[..]).is_err(), "no room is made for it");
    }

    #[test]
    fn hello_welcome_payloads_round_trip() {
        let hello = Hello {
            session: 9,
            rank: 2,
            np: 4,
            listen: "127.0.0.1:12345".into(),
        };
        let json = serde_json::to_vec(&hello).unwrap();
        let back: Hello = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, hello);
        let welcome = Welcome {
            session: 9,
            addrs: vec!["a".into(), "b".into()],
        };
        let json = serde_json::to_vec(&welcome).unwrap();
        let back: Welcome = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, welcome);
    }
}
