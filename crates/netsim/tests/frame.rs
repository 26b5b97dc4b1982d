//! The frame's own contract, through the public API: what it reads as on
//! the wire, what a copy shares, what equality means.

use bytes::Bytes;
use netsim::Frame;

#[test]
fn a_framed_frame_reads_head_payload_trailer() {
    // A toy trailer: the byte sums of the two parts.
    fn sums(head: &[u8], payload: &[u8]) -> [u8; 4] {
        let sum = |b: &[u8]| b.iter().fold(0u8, |a, x| a.wrapping_add(*x));
        [sum(head), sum(payload), 0, 0xEE]
    }
    let payload = Bytes::from(vec![1u8, 2, 3]);
    let f = Frame::framed(&[10, 20], payload.clone(), sums, true);
    assert_eq!(f.len(), 2 + 3 + 4);
    assert_eq!(f.to_vec(), [10, 20, 1, 2, 3, 30, 6, 0, 0xEE]);
    assert!(f.is_verified());
    // A rewritten copy shares the payload and re-derives its trailer;
    // the original reads as before.
    let mut g = f.clone();
    g.head_mut()[0] = 11;
    assert_eq!(g.payload().as_ptr(), payload.as_ptr());
    assert_eq!(g.to_vec(), [11, 20, 1, 2, 3, 31, 6, 0, 0xEE]);
    assert_eq!(f.trailer(), Some([30, 6, 0, 0xEE]));
    // Equality is about wire bytes, not about how they are held.
    assert_ne!(f, g);
    let raw = Frame::from(f.to_vec());
    assert_eq!(raw, f);
    assert!(!raw.is_verified() && raw.head().is_empty() && raw.trailer().is_none());
}
