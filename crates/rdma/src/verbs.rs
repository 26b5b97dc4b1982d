//! Verbs-style work requests and completions: the host ↔ NIC contract.

use bytes::Bytes;
use std::fmt;

use crate::memory::RegionHandle;
use crate::types::{Qpn, RKey};
use crate::wire::NakCode;

/// Application-chosen identifier echoed back in the matching completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WrId(pub u64);

impl fmt::Display for WrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wr{}", self.0)
    }
}

/// A work request posted to a queue pair's send queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkRequest {
    /// One-sided RDMA write: place `data` at `remote_va` in the region
    /// authorized by `rkey`, without involving the remote CPU.
    Write {
        /// Echoed in the completion.
        wr_id: WrId,
        /// Destination virtual address.
        remote_va: u64,
        /// Remote region key.
        rkey: RKey,
        /// Bytes to write.
        data: Bytes,
    },
    /// One-sided RDMA read of `len` bytes from `remote_va`, delivered into
    /// `local_region` at `local_offset`.
    Read {
        /// Echoed in the completion.
        wr_id: WrId,
        /// Source virtual address on the remote host.
        remote_va: u64,
        /// Remote region key.
        rkey: RKey,
        /// Bytes to read (must fit in one MTU in this model).
        len: u32,
        /// Local landing region.
        local_region: RegionHandle,
        /// Offset within the landing region.
        local_offset: usize,
    },
}

impl WorkRequest {
    /// The application identifier of this request.
    pub fn wr_id(&self) -> WrId {
        match self {
            WorkRequest::Write { wr_id, .. } | WorkRequest::Read { wr_id, .. } => *wr_id,
        }
    }
}

/// Terminal status of a work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// The remote NIC acknowledged the operation.
    Success,
    /// The remote NIC refused with this NAK code.
    RemoteError(NakCode),
    /// The retransmission budget was exhausted without an acknowledgement
    /// (lost peer, lost path, or dead switch — §V-E "Crashed switch").
    TimedOut,
    /// The request was flushed because the queue pair entered the error
    /// state.
    Flushed,
}

impl CompletionStatus {
    /// `true` only for [`CompletionStatus::Success`].
    pub fn is_success(self) -> bool {
        matches!(self, CompletionStatus::Success)
    }
}

impl fmt::Display for CompletionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionStatus::Success => write!(f, "success"),
            CompletionStatus::RemoteError(c) => write!(f, "remote error: {c}"),
            CompletionStatus::TimedOut => write!(f, "transport timeout"),
            CompletionStatus::Flushed => write!(f, "flushed (queue pair in error state)"),
        }
    }
}

/// A completion queue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The queue pair the request was posted on.
    pub qpn: Qpn,
    /// The application identifier of the completed request.
    pub wr_id: WrId,
    /// How the request ended.
    pub status: CompletionStatus,
    /// Remote flow-control credits advertised on the completing ACK
    /// (meaningful on success).
    pub credits: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wr_accessors() {
        let w = WorkRequest::Write {
            wr_id: WrId(7),
            remote_va: 0x1000,
            rkey: RKey(1),
            data: Bytes::from_static(b"abcd"),
        };
        assert_eq!(w.wr_id(), WrId(7));
        let mut mem = crate::memory::HostMemory::new(0);
        let r = WorkRequest::Read {
            wr_id: WrId(8),
            remote_va: 0,
            rkey: RKey(1),
            len: 16,
            local_region: mem.register(32, crate::types::Permissions::NONE),
            local_offset: 0,
        };
        assert_eq!(r.wr_id(), WrId(8));
    }

    #[test]
    fn status_predicates() {
        assert!(CompletionStatus::Success.is_success());
        assert!(!CompletionStatus::TimedOut.is_success());
        assert!(!CompletionStatus::RemoteError(NakCode::RemoteAccessError).is_success());
        assert_eq!(CompletionStatus::TimedOut.to_string(), "transport timeout");
    }
}
