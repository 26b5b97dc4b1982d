//! Node abstraction and the context handed to node callbacks.

use bytes::Bytes;
use std::any::Any;
use std::fmt;

use crate::sim::{EventKind, Fabric};
use crate::time::{SimDuration, SimTime};

/// Identifies a node inside a [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node (stable for the lifetime of the simulation).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a port on a node. Ports are allocated in connection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub(crate) u32);

impl PortId {
    /// Builds a port id from its index (ports are allocated in
    /// connection order).
    pub const fn from_index(i: u32) -> PortId {
        PortId(i)
    }

    /// The raw index of this port on its node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An opaque timer cookie. The simulator echoes it back verbatim in
/// [`Node::on_timer`]; nodes encode whatever multiplexing they need in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// A frame on the wire: the full Ethernet frame from destination MAC through
/// payload. Layer-1 overhead (preamble/FCS/IFG) is added by the link model.
///
/// `Clone` is O(1): the contents are reference-counted [`Bytes`], so the
/// copies made in transit — delivery, wire taps, multicast fan-out — share
/// one allocation. Only fault-injected *corruption* materializes a private
/// buffer (it must, to flip bits without affecting other holders).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Serialized frame contents.
    pub data: Bytes,
    /// `true` when the checksums embedded in `data` were produced by the
    /// serializer itself (see [`Frame::new_verified`]): receivers may then
    /// skip re-deriving what the builder just computed. Cleared whenever a
    /// frame is rebuilt from raw bytes — notably after fault-injected
    /// corruption — so integrity checks still run where they can fail.
    verified: bool,
}

impl Frame {
    /// Wraps serialized frame bytes.
    pub fn new(data: Bytes) -> Self {
        Frame {
            data,
            verified: false,
        }
    }

    /// Wraps serialized frame bytes whose embedded checksums are correct
    /// by construction (the serializer computed them over these exact
    /// bytes). Parsers may use [`Frame::is_verified`] to skip redundant
    /// re-verification; the frame's observable behaviour is unchanged
    /// because re-deriving a checksum over unmodified bytes always
    /// reproduces the stored value.
    pub fn new_verified(data: Bytes) -> Self {
        Frame {
            data,
            verified: true,
        }
    }

    /// `true` when the embedded checksums are known-correct by
    /// construction and need not be re-derived.
    pub fn is_verified(&self) -> bool {
        self.verified
    }

    /// Length of the frame payload (excluding layer-1 overhead).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the frame carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        // The verification hint is a provenance note, not content: two
        // frames with the same bytes are the same frame on the wire.
        self.data == other.data
    }
}

impl Eq for Frame {}

impl From<Bytes> for Frame {
    fn from(data: Bytes) -> Self {
        Frame::new(data)
    }
}

impl From<Vec<u8>> for Frame {
    fn from(data: Vec<u8>) -> Self {
        Frame::new(Bytes::from(data))
    }
}

/// The environment handed to every node callback.
///
/// Side effects take hold as they are made: a sent frame is clocked onto
/// its link and its arrival queued, a timer is queued, in call order.
/// Nothing fires before the callback returns, so node code stays free of
/// re-entrancy concerns.
pub struct Context<'a> {
    /// The current simulated instant.
    pub now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) fabric: &'a mut Fabric,
}

impl Context<'_> {
    /// Transmits `frame` on `port`. Delivery time is governed by the link's
    /// bandwidth, queue occupancy and propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not connected.
    pub fn send(&mut self, port: PortId, frame: Frame) {
        self.fabric.send(self.node, port, frame);
    }

    /// Arms a one-shot timer that fires `after` from now with `token`.
    pub fn schedule(&mut self, after: SimDuration, token: TimerToken) {
        self.schedule_at(self.now + after, token);
    }

    /// Arms a one-shot timer at the absolute instant `at` with `token`.
    pub fn schedule_at(&mut self, at: SimTime, token: TimerToken) {
        debug_assert!(at >= self.now, "timer scheduled in the past");
        let node = self.node;
        self.fabric.push_event(at, EventKind::Timer { node, token });
    }
}

/// A simulated network element: a server, a NIC+host combo, a switch, a
/// traffic source, …
///
/// Nodes only interact through frames on links and through their own timers,
/// which keeps every component independently testable.
pub trait Node: Any {
    /// Called once when the simulation starts, before any event fires.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a frame arrives on `port`.
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>);

    /// Called when a timer armed via [`Context::schedule`] fires.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        let _ = (token, ctx);
    }

    /// Human-readable label used in traces and panics.
    fn label(&self) -> String {
        "node".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_constructors() {
        let f: Frame = vec![1u8, 2, 3].into();
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        let g = Frame::new(Bytes::from_static(b""));
        assert!(g.is_empty());
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(PortId(2).to_string(), "p2");
        assert_eq!(NodeId(4).index(), 4);
        assert_eq!(PortId(2).index(), 2);
    }
}
