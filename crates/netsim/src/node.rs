//! Node abstraction and the context handed to node callbacks.

use bytes::Bytes;
use std::any::Any;
use std::fmt;

use crate::sched::Planted;
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

/// Most header bytes a [`Frame`] keeps inline: room for Ethernet + IPv4 +
/// UDP and 28 bytes of transport header.
pub const FRAME_HEAD_MAX: usize = 70;

/// Derives a frame's 4-byte trailer from its final header and payload
/// bytes (see [`Frame::framed`]).
pub type TrailerFn = fn(head: &[u8], payload: &[u8]) -> [u8; 4];

/// A frame on the wire: the full Ethernet frame from destination MAC through
/// payload. Layer-1 overhead (preamble/FCS/IFG) is added by the link model.
///
/// On the wire a frame reads `head ∥ payload ∥ trailer`. The header bytes
/// sit inline (no heap), the payload is reference-counted [`Bytes`], and
/// the trailer — a checksum over the other two — is not stored at all: the
/// frame carries the function that derives it, and whoever reads the wire
/// bytes ([`Frame::to_vec`]: a tap, the fault injector, `==`) pays for it
/// then. So `Clone` costs a header and a refcount bump whatever the
/// payload length, a rewritten copy ([`Frame::head_mut`]) shares its
/// payload with the original, and nobody computes a checksum that nobody
/// checks. A frame wrapped from raw bytes ([`Frame::new`]) is all payload;
/// fault-injected *corruption* makes one, to flip a bit in private.
#[derive(Debug, Clone)]
pub struct Frame {
    head: [u8; FRAME_HEAD_MAX],
    head_len: u8,
    /// `true` when the checksums of this frame were produced by its
    /// builder (see [`Frame::framed`]): receivers may then skip re-deriving
    /// them. Never set on a frame wrapped from raw bytes — notably after
    /// fault-injected corruption — so integrity checks still run where
    /// they can fail.
    verified: bool,
    trailer: Option<TrailerFn>,
    payload: Bytes,
}

impl Frame {
    /// Wraps serialized frame bytes.
    pub fn new(data: Bytes) -> Self {
        Frame {
            head: [0; FRAME_HEAD_MAX],
            head_len: 0,
            verified: false,
            trailer: None,
            payload: data,
        }
    }

    /// A frame built from its parts: `head` inline, `payload` shared, and
    /// `trailer` to derive the last four wire bytes from the two on
    /// demand. `verified` says the checksums inside `head` are correct by
    /// construction (the trailer always is: it is derived from the final
    /// bytes), so parsers may use [`Frame::is_verified`] to skip
    /// re-verification; the frame's observable behaviour is unchanged
    /// because re-deriving a checksum over unmodified bytes always
    /// reproduces the stored value.
    ///
    /// # Panics
    ///
    /// Panics if `head` is longer than [`FRAME_HEAD_MAX`].
    pub fn framed(head: &[u8], payload: Bytes, trailer: TrailerFn, verified: bool) -> Self {
        let mut inline = [0; FRAME_HEAD_MAX];
        inline[..head.len()].copy_from_slice(head);
        Frame {
            head: inline,
            head_len: head.len() as u8,
            verified,
            trailer: Some(trailer),
            payload,
        }
    }

    /// `true` when the embedded checksums are known-correct by
    /// construction and need not be re-derived.
    pub fn is_verified(&self) -> bool {
        self.verified
    }

    /// The inline header bytes (empty on a frame wrapped from raw bytes).
    pub fn head(&self) -> &[u8] {
        &self.head[..usize::from(self.head_len)]
    }

    /// The inline header bytes, for rewriting in place. The trailer is
    /// derived from whatever they finally are.
    pub fn head_mut(&mut self) -> &mut [u8] {
        &mut self.head[..usize::from(self.head_len)]
    }

    /// The shared payload (the whole frame when wrapped from raw bytes).
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The trailer bytes, derived now; `None` on a frame without one.
    pub fn trailer(&self) -> Option<[u8; 4]> {
        self.trailer
            .map(|derive| derive(self.head(), &self.payload))
    }

    /// Length of the frame on the wire (excluding layer-1 overhead).
    pub fn len(&self) -> usize {
        usize::from(self.head_len) + self.payload.len() + self.trailer.map_or(0, |_| 4)
    }

    /// `true` if the frame carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wire bytes, materialized: head, payload, trailer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut wire = Vec::with_capacity(self.len());
        wire.extend_from_slice(self.head());
        wire.extend_from_slice(&self.payload);
        wire.extend(self.trailer().iter().flatten());
        wire
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        // The verification hint and the split into parts are provenance,
        // not content: two frames with the same bytes are the same frame
        // on the wire.
        self.len() == other.len() && self.to_vec() == other.to_vec()
    }
}

impl Eq for Frame {}

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

    /// The bug this run carries ([`crate::Simulation::plant`]).
    pub fn planted(&self) -> Option<Planted> {
        self.fabric.planted
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
