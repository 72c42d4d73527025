//! # sle-wire — the service's binary datagram codec
//!
//! The DSN 2008 paper deploys the leader-election service as one lightweight
//! daemon per workstation exchanging **UDP datagrams** (Section 6's
//! evaluation runs it on a 12-workstation cluster for days). Inside this
//! reproduction the protocol has always been sans-io — `ServiceMessage`
//! values handed between state machines — and the byte cost of each message
//! was only *modelled*, via [`WireSize`](sle_sim::actor::WireSize). This
//! crate makes those bytes real: a versioned, dependency-free binary codec
//! whose encoded length equals, byte for byte, the `wire_size()` the
//! simulator has always charged, so the bandwidth figures of the paper's
//! Figure 6 carry over unchanged to the real network.
//!
//! The normative format specification lives in **`docs/WIRE.md`** at the
//! workspace root: magic, version byte, sender identity, big-endian
//! fixed-width fields, and the [`MAX_DATAGRAM`] size limit. The layers here:
//!
//! * [`codec`] — bounds-checked [`Reader`] / [`Writer`] primitives and the
//!   [`WireFormat`] trait,
//! * [`message`] — [`WireFormat`] implementations for the whole message
//!   vocabulary (HELLO / ALIVE / ACCUSE / LEAVE and their payloads),
//! * [`encode_frame`] / [`decode_frame`] — the datagram envelope used by
//!   the `sle-udp` transport.
//!
//! Decoding is hardened against the network: truncated, corrupted,
//! oversized or plain garbage datagrams produce a [`WireError`], never a
//! panic and never an unbounded allocation (property-tested in
//! `tests/properties.rs`).
//!
//! ## Example: a message's round trip through a datagram
//!
//! ```
//! use sle_core::messages::ServiceMessage;
//! use sle_core::process::GroupId;
//! use sle_sim::actor::NodeId;
//! use sle_wire::{decode_frame, encode_frame, WireError, HEADER_LEN};
//!
//! let accuse = ServiceMessage::Accuse { accusations: vec![(GroupId(3), 9)] };
//! let datagram = encode_frame(NodeId(5), &accuse).unwrap();
//! // magic + version + sender, then the 15-byte one-entry ACCUSE body.
//! assert_eq!(datagram.len(), HEADER_LEN + 15);
//!
//! let (from, decoded): (NodeId, ServiceMessage) = decode_frame(&datagram).unwrap();
//! assert_eq!(from, NodeId(5));
//! assert_eq!(decoded, accuse);
//!
//! // Truncation is rejected, not panicked on.
//! let err = decode_frame::<ServiceMessage>(&datagram[..datagram.len() - 1]);
//! assert!(matches!(err, Err(WireError::Truncated { .. })));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod error;
pub mod message;

pub use codec::{Reader, WireFormat, Writer};
pub use error::WireError;
pub use message::{
    HELLO_LIST, HELLO_PARTIAL, HELLO_PULL, TAG_ACCUSE, TAG_ALIVE, TAG_ALIVE_BATCH,
    TAG_CLIENT_REPLY, TAG_CLIENT_REQUEST, TAG_HELLO, TAG_LEASE_GRANT, TAG_LEAVE, TAG_REDIRECT,
};

use sle_sim::actor::NodeId;

/// The four magic bytes opening every datagram: `b"SLEP"` (Stable Leader
/// Election Protocol).
pub const MAGIC: [u8; 4] = *b"SLEP";

/// The wire-format version this crate encodes and the only one it decodes.
///
/// Bumped on any incompatible layout change; see `docs/WIRE.md` for the
/// compatibility rules. History: v1 = the original HELLO/ALIVE/ACCUSE/LEAVE
/// vocabulary; v2 added the ALIVE-BATCH message (tag `05`) and redefined
/// the ALIVE `seq` as a node-level per-destination stream; v3 added the
/// client tier (`sle-app`): LEASE-GRANT (tag `06`), CLIENT-REQUEST (`07`),
/// CLIENT-REPLY (`08`) and REDIRECT (`09`); v4 made HELLO versioned
/// anti-entropy: a `version` and a flags byte, the announcement list only
/// when the flags say so (digest / pull / full / partial); v5 made ACCUSE a
/// list of `(group, epoch)` entries, one message per suspected peer.
pub const VERSION: u8 = 5;

/// Bytes of envelope preceding the message body: magic (4), version (1),
/// sender node id (4).
pub const HEADER_LEN: usize = 9;

/// Upper bound on a whole datagram (envelope + body), chosen to fit a
/// single unfragmented packet on a standard 1500-byte-MTU Ethernet path.
///
/// Encoding a larger message fails with [`WireError::TooLarge`]; receivers
/// drop larger datagrams before parsing them.
pub const MAX_DATAGRAM: usize = 1400;

/// Encodes `msg` into a complete datagram, stamped as sent by `from`.
///
/// # Errors
///
/// Returns [`WireError::TooLarge`] if the datagram would exceed
/// [`MAX_DATAGRAM`] bytes.
pub fn encode_frame<M: WireFormat>(from: NodeId, msg: &M) -> Result<Vec<u8>, WireError> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, from, msg)?;
    Ok(frame)
}

/// Appends `msg`'s complete datagram, stamped as sent by `from`, to `buf`
/// (a transport's coalescing buffer) and returns the frame's length.
///
/// # Errors
///
/// [`WireError::TooLarge`] past [`MAX_DATAGRAM`] bytes; `buf` is left as it was.
pub fn encode_frame_into<M: WireFormat>(
    buf: &mut Vec<u8>,
    from: NodeId,
    msg: &M,
) -> Result<usize, WireError> {
    let start = buf.len();
    let mut w = Writer::from_bytes(std::mem::take(buf));
    w.put_bytes(&MAGIC);
    w.put_u8(VERSION);
    from.encode_into(&mut w);
    msg.encode_into(&mut w);
    *buf = w.into_bytes();
    let len = buf.len() - start;
    if len > MAX_DATAGRAM {
        buf.truncate(start);
        return Err(WireError::TooLarge(len));
    }
    Ok(len)
}

/// Decodes a complete datagram into its claimed sender and message.
///
/// The decode is strict: the magic and version must match, the body must
/// parse, and no bytes may be left over.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first malformation found; no
/// input can make this panic.
pub fn decode_frame<M: WireFormat>(bytes: &[u8]) -> Result<(NodeId, M), WireError> {
    if bytes.len() > MAX_DATAGRAM {
        return Err(WireError::TooLarge(bytes.len()));
    }
    let mut r = Reader::new(bytes);
    let magic = r.take_bytes(4)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic([
            magic[0], magic[1], magic[2], magic[3],
        ]));
    }
    let version = r.take_u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let from = NodeId::decode(&mut r)?;
    let msg = M::decode(&mut r)?;
    r.expect_end()?;
    Ok((from, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_core::messages::ServiceMessage;
    use sle_core::process::{GroupId, ProcessId};

    fn sample() -> ServiceMessage {
        ServiceMessage::Leave {
            group: GroupId(2),
            process: ProcessId::new(NodeId(1), 3),
        }
    }

    #[test]
    fn frame_round_trips() {
        let bytes = encode_frame(NodeId(9), &sample()).unwrap();
        assert_eq!(&bytes[..4], b"SLEP");
        assert_eq!(bytes[4], VERSION);
        assert_eq!(bytes.len(), HEADER_LEN + 13);
        let (from, msg): (NodeId, ServiceMessage) = decode_frame(&bytes).unwrap();
        assert_eq!(from, NodeId(9));
        assert_eq!(msg, sample());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = encode_frame(NodeId(0), &sample()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            decode_frame::<ServiceMessage>(&bytes),
            Err(WireError::BadMagic(_))
        ));
        let mut bytes = encode_frame(NodeId(0), &sample()).unwrap();
        bytes[4] = 99;
        assert_eq!(
            decode_frame::<ServiceMessage>(&bytes),
            Err(WireError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_frame(NodeId(0), &sample()).unwrap();
        bytes.push(0);
        assert_eq!(
            decode_frame::<ServiceMessage>(&bytes),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn oversized_input_is_rejected_before_parsing() {
        let big = vec![0u8; MAX_DATAGRAM + 1];
        assert_eq!(
            decode_frame::<ServiceMessage>(&big),
            Err(WireError::TooLarge(MAX_DATAGRAM + 1))
        );
    }

    #[test]
    fn oversized_message_is_rejected_at_encode_time() {
        use sle_core::messages::{GroupAnnouncement, HelloList};
        use sle_sim::time::SimInstant;
        // 250 announcements * (4 + 2) bytes > 1400 - 28 - 9.
        let announcements = (0..250)
            .map(|i| GroupAnnouncement {
                group: GroupId(i),
                processes: Vec::new(),
            })
            .collect();
        let hello = ServiceMessage::Hello {
            incarnation: 0,
            version: 0,
            sent_at: SimInstant::ZERO,
            pull: false,
            announcements: HelloList::Full(announcements),
        };
        assert!(matches!(
            encode_frame(NodeId(0), &hello),
            Err(WireError::TooLarge(_))
        ));
        // Into a shared buffer: same check, and the buffer is left as it was.
        let mut buf = vec![0xAA; 7];
        assert!(matches!(
            encode_frame_into(&mut buf, NodeId(0), &hello),
            Err(WireError::TooLarge(_))
        ));
        assert_eq!(buf, vec![0xAA; 7]);
        let len = encode_frame_into(&mut buf, NodeId(9), &sample()).unwrap();
        assert_eq!(len, HEADER_LEN + 13);
        assert_eq!(buf[7..], encode_frame(NodeId(9), &sample()).unwrap());
    }

    #[test]
    fn errors_display_helpfully() {
        assert_eq!(
            WireError::UnsupportedVersion(9).to_string(),
            "unsupported wire version 9"
        );
        assert_eq!(
            WireError::Truncated {
                needed: 8,
                remaining: 3
            }
            .to_string(),
            "truncated datagram: field needs 8 bytes, 3 remain"
        );
        assert_eq!(
            WireError::UnknownTag(7).to_string(),
            "unknown message tag 7"
        );
        assert_eq!(WireError::BadOptionTag(7).to_string(), "bad option tag 7");
        assert_eq!(
            WireError::TrailingBytes(2).to_string(),
            "2 trailing bytes after message"
        );
        assert_eq!(
            WireError::BadMagic(*b"XXXX").to_string(),
            "bad magic [88, 88, 88, 88]"
        );
        assert!(WireError::TooLarge(2000).to_string().contains("1400"));
    }
}
