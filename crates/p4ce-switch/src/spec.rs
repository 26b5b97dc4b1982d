//! Wire encodings for P4CE's control-plane piggyback data.
//!
//! The leader's ConnectRequest to the switch carries the communication
//! group it wants: the required acknowledgement count `f` and the replica
//! addresses (§IV-A, "Setting up the connection"). The switch's
//! ConnectRequests to the replicas carry the leader's identity so each
//! replica can apply its permission policy against the *leader*, not the
//! switch.

use bytes::{BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;
use std::net::Ipv4Addr;

/// Most replicas one group can hold: the gather's `NumRecv` register is
/// a 32-bit bitmap, one bit per replica.
pub const MAX_REPLICAS: usize = 32;

/// The group a leader asks the switch to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// Positive acknowledgements required before the switch answers the
    /// leader (`f`; with the leader itself this makes a majority).
    pub f: u8,
    /// The replicas to scatter to.
    pub replicas: Vec<Ipv4Addr>,
}

impl GroupSpec {
    /// Serializes the spec (fits in CM request private data for up to 22
    /// replicas).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(2 + 4 * self.replicas.len());
        buf.put_u8(self.f);
        buf.put_u8(self.replicas.len() as u8);
        for ip in &self.replicas {
            buf.put_slice(&ip.octets());
        }
        buf.freeze()
    }

    /// Deserializes a spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on truncation, or on a group the switch
    /// cannot count: no replicas or more than [`MAX_REPLICAS`], `f` zero
    /// (a quorum that is never *reached*) or above the replica count.
    pub fn decode(bytes: &[u8]) -> Result<GroupSpec, SpecError> {
        if bytes.len() < 2 {
            return Err(SpecError::Truncated);
        }
        let f = bytes[0];
        let n = bytes[1] as usize;
        if bytes.len() < 2 + 4 * n {
            return Err(SpecError::Truncated);
        }
        // 1 ≤ f ≤ n ≤ MAX_REPLICAS (which rules out an empty set too).
        if f == 0 || usize::from(f) > n || n > MAX_REPLICAS {
            return Err(SpecError::BadQuorum { f, replicas: n });
        }
        let replicas = (0..n)
            .map(|i| {
                let o = &bytes[2 + 4 * i..6 + 4 * i];
                Ipv4Addr::new(o[0], o[1], o[2], o[3])
            })
            .collect();
        Ok(GroupSpec { f, replicas })
    }
}

/// Private data the switch sends replicas when opening the fan-out
/// connections: which leader this group belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupJoin {
    /// The leader on whose behalf the switch connects.
    pub leader: Ipv4Addr,
}

impl GroupJoin {
    /// Tag byte marking switch-originated group joins, chosen outside the
    /// member-to-member connection-kind space.
    pub const TAG: u8 = 3;

    /// Serializes the join notice.
    pub fn encode(&self) -> Bytes {
        let mut v = Vec::with_capacity(5);
        v.push(Self::TAG);
        v.extend_from_slice(&self.leader.octets());
        Bytes::from(v)
    }

    /// Deserializes a join notice.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Truncated`] if shorter than five bytes or not
    /// tagged as a join.
    pub fn decode(bytes: &[u8]) -> Result<GroupJoin, SpecError> {
        if bytes.len() < 5 || bytes[0] != Self::TAG {
            return Err(SpecError::Truncated);
        }
        Ok(GroupJoin {
            leader: Ipv4Addr::new(bytes[1], bytes[2], bytes[3], bytes[4]),
        })
    }
}

/// Errors decoding control-plane piggyback data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// Input ended early.
    Truncated,
    /// `f` is zero or exceeds the replica count, or the replica set is
    /// empty or larger than [`MAX_REPLICAS`].
    BadQuorum {
        /// Requested acknowledgement count.
        f: u8,
        /// Number of replicas offered.
        replicas: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Truncated => write!(f, "truncated group spec"),
            SpecError::BadQuorum { f: q, replicas } => {
                write!(f, "quorum f={q} impossible with {replicas} replicas")
            }
        }
    }
}

impl Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_spec_roundtrip() {
        let spec = GroupSpec {
            f: 2,
            replicas: vec![
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(10, 0, 0, 3),
                Ipv4Addr::new(10, 0, 0, 4),
                Ipv4Addr::new(10, 0, 0, 5),
            ],
        };
        assert_eq!(GroupSpec::decode(&spec.encode()).expect("decode"), spec);
    }

    #[test]
    fn group_spec_rejects_bad_quorum() {
        let bad = GroupSpec {
            f: 3,
            replicas: vec![Ipv4Addr::new(10, 0, 0, 2)],
        };
        assert_eq!(
            GroupSpec::decode(&bad.encode()),
            Err(SpecError::BadQuorum { f: 3, replicas: 1 })
        );
        // A quorum of zero is never reached; replica 32 has no NumRecv bit.
        assert_eq!(
            GroupSpec::decode(&[0, 1, 10, 0, 0, 2]),
            Err(SpecError::BadQuorum { f: 0, replicas: 1 })
        );
        let mut forged = vec![1, 33];
        forged.resize(2 + 4 * 33, 7);
        assert_eq!(
            GroupSpec::decode(&forged),
            Err(SpecError::BadQuorum { f: 1, replicas: 33 })
        );
        forged[1] = MAX_REPLICAS as u8;
        assert_eq!(GroupSpec::decode(&forged).map(|s| s.replicas.len()), Ok(32));
        assert_eq!(GroupSpec::decode(&[1]), Err(SpecError::Truncated));
        assert_eq!(GroupSpec::decode(&[1, 4, 0, 0]), Err(SpecError::Truncated));
        // Three bytes behind a 4 (the shape of a tag and a 16-bit group
        // id) name either no replicas or more than the bytes that follow.
        for gid in [0u16, 1, 7, 255, 256, 0xabcd, u16::MAX] {
            let [hi, lo] = gid.to_be_bytes();
            let expected = if hi == 0 {
                Err(SpecError::BadQuorum { f: 4, replicas: 0 })
            } else {
                Err(SpecError::Truncated)
            };
            assert_eq!(GroupSpec::decode(&[4, hi, lo]), expected, "gid {gid}");
        }
    }

    #[test]
    fn group_join_roundtrip() {
        let j = GroupJoin {
            leader: Ipv4Addr::new(10, 0, 0, 1),
        };
        assert_eq!(GroupJoin::decode(&j.encode()).expect("decode"), j);
        assert_eq!(GroupJoin::decode(&[1, 2]), Err(SpecError::Truncated));
    }

    #[test]
    fn fits_in_cm_private_data() {
        let spec = GroupSpec {
            f: 11,
            replicas: (0..22).map(|i| Ipv4Addr::new(10, 0, 1, i)).collect(),
        };
        assert!(spec.encode().len() <= rdma::cm::MAX_REQ_PRIVATE_DATA);
    }
}
