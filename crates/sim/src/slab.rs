//! A fixed-overhead slab arena with `u32` index handles.
//!
//! The hot path of a large discrete-event simulation allocates and frees one
//! record per in-flight activity (a running task attempt, an open span, …)
//! millions of times. Boxing each record — or keying it in a `HashMap` —
//! costs an allocation plus pointer chasing per event. The slab keeps all
//! records in one contiguous `Vec`, recycles vacated slots through an
//! intrusive free list, and hands out plain `u32` handles, so insert/remove
//! are O(1) with zero per-record allocation in steady state.
//!
//! Handles are *not* generation-checked: a [`SlotId`] is valid from
//! [`Slab::insert`] until the matching [`Slab::remove`], after which the slot
//! may be reused. Callers own the discipline of not dereferencing stale
//! handles (the sharded pilot backend, for instance, removes its handle
//! exactly once, when an attempt completes or is evicted).

/// Handle to an occupied slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u32);

enum Entry<T> {
    Occupied(T),
    /// Vacant slot; holds the index of the next free slot (`u32::MAX` ends
    /// the list).
    Free(u32),
}

/// A slab arena: contiguous storage, O(1) insert/remove, `u32` handles.
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    len: usize,
}

const FREE_END: u32 = u32::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: FREE_END,
            len: 0,
        }
    }

    /// Insert a record, reusing a vacated slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if self.free_head != FREE_END {
            let idx = self.free_head;
            match self.entries[idx as usize] {
                Entry::Free(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            self.entries[idx as usize] = Entry::Occupied(value);
            SlotId(idx)
        } else {
            let idx = self.entries.len() as u32;
            assert!(idx != FREE_END, "slab full: 2^32 - 1 slots exhausted");
            self.entries.push(Entry::Occupied(value));
            SlotId(idx)
        }
    }

    /// Remove and return the record at `id`.
    ///
    /// # Panics
    /// Panics if `id` is vacant or out of range — that is always a caller
    /// bug (a stale or foreign handle), never a recoverable condition.
    pub fn remove(&mut self, id: SlotId) -> T {
        let slot = &mut self.entries[id.0 as usize];
        match std::mem::replace(slot, Entry::Free(self.free_head)) {
            Entry::Occupied(value) => {
                self.free_head = id.0;
                self.len -= 1;
                value
            }
            Entry::Free(next) => {
                // Undo the replace so the free list is not corrupted, then
                // report the misuse.
                *slot = Entry::Free(next);
                panic!("slab: remove of vacant slot {}", id.0);
            }
        }
    }

    /// Shared access to the record at `id`, if occupied.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        match self.entries.get(id.0 as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutable access to the record at `id`, if occupied.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        match self.entries.get_mut(id.0 as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate occupied slots in index order as `(handle, &record)`.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Occupied(v) => Some((SlotId(i as u32), v)),
                Entry::Free(_) => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), "a");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(b), Some(&"b"));
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut slab = Slab::new();
        let ids: Vec<_> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(ids[1]);
        slab.remove(ids[3]);
        // Most recently freed slot is reused first; backing Vec never grows.
        assert_eq!(slab.insert(30), ids[3]);
        assert_eq!(slab.insert(10), ids[1]);
        assert_eq!(slab.entries.len(), 4);
        assert_eq!(slab.len(), 4);
    }

    #[test]
    fn iter_walks_occupied_slots_in_index_order() {
        let mut slab = Slab::new();
        let ids: Vec<_> = (0..5u32).map(|i| slab.insert(i * 10)).collect();
        slab.remove(ids[2]);
        let seen: Vec<_> = slab.iter().map(|(id, &v)| (id.0, v)).collect();
        assert_eq!(seen, vec![(0, 0), (1, 10), (3, 30), (4, 40)]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut slab = Slab::new();
        let id = slab.insert(1u64);
        *slab.get_mut(id).unwrap() += 41;
        assert_eq!(slab.get(id), Some(&42));
    }

    #[test]
    #[should_panic(expected = "remove of vacant slot")]
    fn double_remove_panics() {
        let mut slab = Slab::new();
        let id = slab.insert(());
        slab.remove(id);
        slab.remove(id);
    }

    #[test]
    fn empty_and_default() {
        let mut slab: Slab<u8> = Slab::default();
        assert!(slab.is_empty());
        assert_eq!(slab.get(SlotId(7)), None);
        let id = slab.insert(9);
        assert!(!slab.is_empty());
        slab.remove(id);
        assert!(slab.is_empty());
    }
}
