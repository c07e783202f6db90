//! Bit sets over an STG's instance slots.
//!
//! Register liveness and the must-be-defined analysis of
//! [`validate_dataflow`](crate::validate_dataflow) track sets of values;
//! every value an STG names is a dense slot of its instance table, so a
//! set of them is one bit per slot.

/// A set of slots, one bit per slot of an [`Stg`](crate::Stg)'s instance
/// table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set over `slots` slots.
    pub fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Whether `slot` is in the set.
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        self.words[slot as usize / 64] & (1 << (slot % 64)) != 0
    }

    /// Adds `slot`.
    #[inline]
    pub fn insert(&mut self, slot: u32) {
        self.words[slot as usize / 64] |= 1 << (slot % 64);
    }

    /// Removes `slot`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, slot: u32) -> bool {
        let present = self.contains(slot);
        self.words[slot as usize / 64] &= !(1 << (slot % 64));
        present
    }

    /// Number of slots in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every slot.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &SlotSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self −= other`.
    pub fn difference_with(&mut self, other: &SlotSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `self ∩= other`, returning whether `self` changed.
    pub fn intersect_with(&mut self, other: &SlotSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            changed |= *a & !b != 0;
            *a &= b;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_set_operations() {
        let mut a = SlotSet::new(130);
        assert_eq!(a.count(), 0);
        for s in [0, 63, 64, 129] {
            a.insert(s);
        }
        assert_eq!(a.count(), 4);
        assert!(a.contains(129) && !a.contains(1));
        assert!(a.remove(63) && !a.remove(63));

        let mut b = SlotSet::new(130);
        b.insert(64);
        b.insert(5);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 4);
        u.difference_with(&b);
        assert_eq!(u.count(), 2);
        assert!(a.intersect_with(&b), "0 and 129 dropped");
        assert!(!a.intersect_with(&b), "already a subset");
        assert!(a.contains(64) && a.count() == 1);
        a.clear();
        assert_eq!(a.count(), 0);
    }
}
