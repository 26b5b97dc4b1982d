//! Connection-management datagrams (the InfiniBand CM of §II-A).
//!
//! The handshake: a client sends [`CmMessage::ConnectRequest`] naming its
//! queue pair; the server answers [`CmMessage::ConnectReply`] naming its
//! own; the client finishes with [`CmMessage::ReadyToUse`]. Either side may
//! refuse with [`CmMessage::ConnectReject`]. Requests and replies can carry
//! *private data* — P4CE piggybacks the replica set on the request and the
//! virtual address / virtual `R_key` on the reply (§IV-A).
//!
//! On the wire these ride as `SEND_ONLY` packets addressed to the
//! well-known CM queue pair ([`crate::types::CM_QPN`]), standing in for the
//! MAD datagrams of a real fabric.

use bytes::{BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

use crate::types::{Psn, Qpn, RKey};

/// Maximum private-data bytes in a ConnectRequest (IB CM REQ limit).
pub const MAX_REQ_PRIVATE_DATA: usize = 92;
/// Maximum private-data bytes in a ConnectReply (IB CM REP limit).
pub const MAX_REP_PRIVATE_DATA: usize = 196;

/// Why a connection attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The responder does not accept connections right now.
    NotListening,
    /// The requester is not authorized (e.g. not the current leader).
    NotAuthorized,
    /// The responder ran out of resources (queue pairs, table entries, …).
    NoResources,
}

impl RejectReason {
    fn to_wire(self) -> u8 {
        match self {
            RejectReason::NotListening => 0,
            RejectReason::NotAuthorized => 1,
            RejectReason::NoResources => 2,
        }
    }

    fn from_wire(v: u8) -> Option<Self> {
        Some(match v {
            0 => RejectReason::NotListening,
            1 => RejectReason::NotAuthorized,
            2 => RejectReason::NoResources,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::NotListening => "not listening",
            RejectReason::NotAuthorized => "not authorized",
            RejectReason::NoResources => "no resources",
        };
        f.write_str(s)
    }
}

/// A connection-management datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmMessage {
    /// First message of the handshake: "connect to me at this queue pair".
    ConnectRequest {
        /// Correlates the messages of one handshake.
        handshake_id: u64,
        /// The requester's queue pair number.
        qpn: Qpn,
        /// The requester's initial packet sequence number.
        start_psn: Psn,
        /// Application-defined payload (≤ [`MAX_REQ_PRIVATE_DATA`]).
        private_data: Bytes,
    },
    /// The responder's half of the handshake.
    ConnectReply {
        /// Echoes the request's `handshake_id`.
        handshake_id: u64,
        /// The responder's queue pair number.
        qpn: Qpn,
        /// The responder's initial packet sequence number.
        start_psn: Psn,
        /// Application-defined payload (≤ [`MAX_REP_PRIVATE_DATA`]).
        private_data: Bytes,
    },
    /// Final message: the connection is live.
    ReadyToUse {
        /// Echoes the request's `handshake_id`.
        handshake_id: u64,
    },
    /// The responder refuses the connection.
    ConnectReject {
        /// Echoes the request's `handshake_id`.
        handshake_id: u64,
        /// Why.
        reason: RejectReason,
    },
}

impl CmMessage {
    /// Serializes the datagram.
    ///
    /// # Panics
    ///
    /// Panics if private data exceeds the CM limits (a construction bug).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        match self {
            CmMessage::ConnectRequest {
                handshake_id,
                qpn,
                start_psn,
                private_data,
            } => {
                assert!(
                    private_data.len() <= MAX_REQ_PRIVATE_DATA,
                    "ConnectRequest private data exceeds {MAX_REQ_PRIVATE_DATA} bytes"
                );
                buf.put_u8(1);
                buf.put_u64(*handshake_id);
                buf.put_u32(qpn.masked());
                buf.put_u32(start_psn.value());
                buf.put_u16(private_data.len() as u16);
                buf.put_slice(private_data);
            }
            CmMessage::ConnectReply {
                handshake_id,
                qpn,
                start_psn,
                private_data,
            } => {
                assert!(
                    private_data.len() <= MAX_REP_PRIVATE_DATA,
                    "ConnectReply private data exceeds {MAX_REP_PRIVATE_DATA} bytes"
                );
                buf.put_u8(2);
                buf.put_u64(*handshake_id);
                buf.put_u32(qpn.masked());
                buf.put_u32(start_psn.value());
                buf.put_u16(private_data.len() as u16);
                buf.put_slice(private_data);
            }
            CmMessage::ReadyToUse { handshake_id } => {
                buf.put_u8(3);
                buf.put_u64(*handshake_id);
            }
            CmMessage::ConnectReject {
                handshake_id,
                reason,
            } => {
                buf.put_u8(4);
                buf.put_u64(*handshake_id);
                buf.put_u8(reason.to_wire());
            }
        }
        buf.freeze()
    }

    /// Deserializes a datagram.
    ///
    /// # Errors
    ///
    /// Returns [`CmDecodeError`] on truncated or unrecognized input.
    pub fn decode(bytes: &[u8]) -> Result<CmMessage, CmDecodeError> {
        fn take<const N: usize>(b: &[u8], off: usize) -> Result<[u8; N], CmDecodeError> {
            b.get(off..off + N)
                .and_then(|s| s.try_into().ok())
                .ok_or(CmDecodeError::Truncated)
        }
        let tag = *bytes.first().ok_or(CmDecodeError::Truncated)?;
        let handshake_id = u64::from_be_bytes(take::<8>(bytes, 1)?);
        match tag {
            1 | 2 => {
                let qpn = Qpn(u32::from_be_bytes(take::<4>(bytes, 9)?));
                let start_psn = Psn::new(u32::from_be_bytes(take::<4>(bytes, 13)?));
                let pd_len = u16::from_be_bytes(take::<2>(bytes, 17)?) as usize;
                let pd = bytes.get(19..19 + pd_len).ok_or(CmDecodeError::Truncated)?;
                let private_data = Bytes::copy_from_slice(pd);
                Ok(if tag == 1 {
                    CmMessage::ConnectRequest {
                        handshake_id,
                        qpn,
                        start_psn,
                        private_data,
                    }
                } else {
                    CmMessage::ConnectReply {
                        handshake_id,
                        qpn,
                        start_psn,
                        private_data,
                    }
                })
            }
            3 => Ok(CmMessage::ReadyToUse { handshake_id }),
            4 => {
                let raw = *bytes.get(9).ok_or(CmDecodeError::Truncated)?;
                let reason =
                    RejectReason::from_wire(raw).ok_or(CmDecodeError::BadRejectReason(raw))?;
                Ok(CmMessage::ConnectReject {
                    handshake_id,
                    reason,
                })
            }
            t => Err(CmDecodeError::BadTag(t)),
        }
    }
}

/// Private data carried on a `ConnectReply`: the virtual address and
/// `R_key` the client must use for one-sided operations against the
/// responder's exposed region (§IV-A). P4CE's switch replies with a
/// *virtual* pair (VA = 0, random key) that it later translates per replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionAdvert {
    /// Base virtual address of the exposed region.
    pub va: u64,
    /// Remote key authorizing access.
    pub rkey: RKey,
    /// Region length in bytes.
    pub len: u64,
}

impl RegionAdvert {
    /// Encoded length in bytes.
    pub const WIRE_LEN: usize = 20;

    /// Serializes the advert (fits comfortably in CM private data).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::WIRE_LEN);
        buf.put_u64(self.va);
        buf.put_u32(self.rkey.0);
        buf.put_u64(self.len);
        buf.freeze()
    }

    /// Deserializes an advert.
    ///
    /// # Errors
    ///
    /// Returns [`CmDecodeError::Truncated`] if the slice is too short.
    pub fn decode(bytes: &[u8]) -> Result<RegionAdvert, CmDecodeError> {
        if bytes.len() < Self::WIRE_LEN {
            return Err(CmDecodeError::Truncated);
        }
        Ok(RegionAdvert {
            va: u64::from_be_bytes(bytes[0..8].try_into().expect("len")),
            rkey: RKey(u32::from_be_bytes(bytes[8..12].try_into().expect("len"))),
            len: u64::from_be_bytes(bytes[12..20].try_into().expect("len")),
        })
    }
}

/// Errors decoding a CM datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmDecodeError {
    /// Input ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Unknown reject reason.
    BadRejectReason(u8),
}

impl fmt::Display for CmDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmDecodeError::Truncated => write!(f, "truncated CM datagram"),
            CmDecodeError::BadTag(t) => write!(f, "unknown CM message tag {t}"),
            CmDecodeError::BadRejectReason(r) => write!(f, "unknown reject reason {r}"),
        }
    }
}

impl Error for CmDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_with_private_data() {
        let msg = CmMessage::ConnectRequest {
            handshake_id: 0xfeed,
            qpn: Qpn(42),
            start_psn: Psn::new(1000),
            private_data: Bytes::from_static(b"replica-set"),
        };
        assert_eq!(CmMessage::decode(&msg.encode()).expect("decode"), msg);
    }

    #[test]
    fn reply_rtu_reject_roundtrip() {
        let reply = CmMessage::ConnectReply {
            handshake_id: 7,
            qpn: Qpn(9),
            start_psn: Psn::new(55),
            private_data: RegionAdvert {
                va: 0,
                rkey: RKey(0x1234),
                len: 1 << 20,
            }
            .encode(),
        };
        let rtu = CmMessage::ReadyToUse { handshake_id: 7 };
        let rej = CmMessage::ConnectReject {
            handshake_id: 7,
            reason: RejectReason::NotAuthorized,
        };
        for msg in [reply, rtu, rej] {
            assert_eq!(CmMessage::decode(&msg.encode()).expect("decode"), msg);
        }
    }

    #[test]
    fn region_advert_roundtrip() {
        let adv = RegionAdvert {
            va: 0xabc0_0000,
            rkey: RKey(0x5555_aaaa),
            len: 4096,
        };
        assert_eq!(RegionAdvert::decode(&adv.encode()).expect("decode"), adv);
        assert_eq!(adv.encode().len(), RegionAdvert::WIRE_LEN);
    }

    #[test]
    fn truncation_is_detected() {
        let msg = CmMessage::ConnectRequest {
            handshake_id: 1,
            qpn: Qpn(2),
            start_psn: Psn::new(3),
            private_data: Bytes::from_static(b"abcdef"),
        };
        let enc = msg.encode();
        for cut in [0, 5, 12, enc.len() - 1] {
            assert_eq!(
                CmMessage::decode(&enc[..cut]),
                Err(CmDecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut raw = CmMessage::ReadyToUse { handshake_id: 1 }.encode().to_vec();
        raw[0] = 99;
        assert_eq!(CmMessage::decode(&raw), Err(CmDecodeError::BadTag(99)));
    }

    #[test]
    #[should_panic(expected = "private data exceeds")]
    fn oversized_private_data_panics() {
        let msg = CmMessage::ConnectRequest {
            handshake_id: 1,
            qpn: Qpn(2),
            start_psn: Psn::new(3),
            private_data: Bytes::from(vec![0u8; MAX_REQ_PRIVATE_DATA + 1]),
        };
        let _ = msg.encode();
    }
}
