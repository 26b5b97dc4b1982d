//! Stateful register arrays, as exposed by the Tofino pipeline.
//!
//! Tofino registers are small SRAM arrays with an attached ALU: a packet
//! can read-modify-write one slot per pipeline pass. The ALU cannot
//! compare two variables directly — only a variable against a constant —
//! so comparisons are synthesized from subtraction underflow routed
//! through an identity hash (§IV-D of the paper, reproduced verbatim in
//! [`alu_min`]).

/// A register array: `slots` 32-bit cells with read-modify-write ops.
#[derive(Debug, Clone)]
pub struct RegisterArray {
    name: String,
    slots: Vec<u32>,
}

impl RegisterArray {
    /// Allocates an array of `len` zeroed cells.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(name: impl Into<String>, len: usize) -> Self {
        assert!(len > 0, "register array must have at least one slot");
        RegisterArray {
            name: name.into(),
            slots: vec![0; len],
        }
    }

    /// The array's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the array has no slots (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&self, index: usize) -> usize {
        index % self.slots.len()
    }

    /// Reads a slot (indices wrap, as P4 code masks them to the array
    /// size).
    pub fn read(&self, index: usize) -> u32 {
        self.slots[self.slot(index)]
    }

    /// Overwrites a slot.
    pub fn write(&mut self, index: usize, value: u32) {
        let i = self.slot(index);
        self.slots[i] = value;
    }

    /// Atomically increments a slot, returning the *new* value — the
    /// NumRecv pattern of §IV-C.
    pub fn increment(&mut self, index: usize) -> u32 {
        let i = self.slot(index);
        self.slots[i] = self.slots[i].wrapping_add(1);
        self.slots[i]
    }

    /// Stores the minimum of the current value and `candidate`, returning
    /// the stored minimum ([`alu_min`]).
    pub fn min_update(&mut self, index: usize, candidate: u32) -> u32 {
        let i = self.slot(index);
        self.slots[i] = alu_min(candidate, self.slots[i]);
        self.slots[i]
    }
}

/// The smaller of `a` and `b`, exactly as the paper describes it (§IV-D):
/// the ALU cannot evaluate `if (a < b)`, so it subtracts and inspects the
/// underflow, forwarding the borrow bit through an identity hash before
/// it can gate the conditional assignment.
#[inline]
pub fn alu_min(a: u32, b: u32) -> u32 {
    // `a - b` underflows iff a < b.
    let (_, underflow) = a.overflowing_sub(b);
    // The underflow wire cannot feed a conditional directly; route it
    // through the identity hash unit.
    if identity_hash(u32::from(underflow)) != 0 {
        a
    } else {
        b
    }
}

/// The Tofino "identity hash" unit: returns its input unchanged. Useful
/// only because its *output* is wired to conditional logic while ALU
/// status flags are not.
#[inline]
fn identity_hash(v: u32) -> u32 {
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_wraps_index() {
        let mut r = RegisterArray::new("numrecv", 256);
        r.write(3, 17);
        assert_eq!(r.read(3), 17);
        // Index 259 aliases slot 3 — the 256-entry NumRecv window.
        assert_eq!(r.read(259), 17);
        r.write(259, 9);
        assert_eq!(r.read(3), 9);
        assert_eq!(r.len(), 256);
        assert!(!r.is_empty());
        assert_eq!(r.name(), "numrecv");
    }

    #[test]
    fn increment_returns_new_value() {
        let mut r = RegisterArray::new("n", 8);
        assert_eq!(r.increment(0), 1);
        assert_eq!(r.increment(0), 2);
        assert_eq!(r.read(0), 2);
    }

    #[test]
    fn min_update_keeps_minimum() {
        let mut r = RegisterArray::new("credits", 4);
        r.write(0, 20);
        assert_eq!(r.min_update(0, 25), 20, "larger candidate ignored");
        assert_eq!(r.min_update(0, 5), 5, "smaller candidate stored");
        assert_eq!(r.min_update(0, 5), 5, "equal candidate is a no-op");
        assert_eq!(r.read(0), 5);
    }

    #[test]
    fn min_update_handles_extremes() {
        let mut r = RegisterArray::new("m", 1);
        r.write(0, 0);
        assert_eq!(r.min_update(0, u32::MAX), 0);
        r.write(0, u32::MAX);
        assert_eq!(r.min_update(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_array_panics() {
        let _ = RegisterArray::new("bad", 0);
    }
}
