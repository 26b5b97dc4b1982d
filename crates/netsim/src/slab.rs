//! Where parked things live: a vector of slots with a free list.

/// Items parked until an event resumes them, addressed by the `u32` id
/// [`Slab::put`] hands out — small enough to ride in an event or a timer
/// token. Parking and resuming are O(1) vector operations and the newest
/// vacated slot is reused first, so steady-state traffic recycles the
/// same few slots without hashing or allocating.
///
/// ```
/// use netsim::Slab;
/// let mut parked = Slab::new();
/// let a = parked.put("a");
/// let b = parked.put("b");
/// assert_eq!(parked.take(a), Some("a"));
/// assert_eq!(parked.take(a), None);
/// assert_eq!(parked.put("c"), a, "the vacated slot is reused");
/// assert_eq!(parked.get(b), Some(&"b"));
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab::default()
    }

    /// Parks `item` and returns the id that names it until it is taken.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` items are parked at once.
    #[inline]
    pub fn put(&mut self, item: T) -> u32 {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = Some(item);
            id
        } else {
            let id = u32::try_from(self.slots.len()).expect("too many items parked");
            self.slots.push(Some(item));
            id
        }
    }

    /// The item parked under `id`, if it is still there.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(id as usize)?.as_ref()
    }

    /// The item parked under `id`, if it is still there.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Removes and returns the item parked under `id`; `None` if nothing
    /// is (a second take, or an id never handed out).
    #[inline]
    pub fn take(&mut self, id: u32) -> Option<T> {
        let item = self.slots.get_mut(id as usize)?.take();
        if item.is_some() {
            self.free.push(id);
        }
        item
    }
}
