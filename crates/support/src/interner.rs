//! A slice interner: maps slices to dense `u32` ids.
//!
//! The scheduler's signature builder names each shifted instance and
//! each signature entry by the id of its token slice, so equality
//! becomes an integer compare and every distinct slice is stored once.
//! Ids are handed out in first-intern order and are stable for the
//! interner's lifetime: it deliberately has no deletion, and the
//! workloads here intern a bounded universe per run.

use crate::fxhash::FxHasher;
use std::hash::{Hash, Hasher};

/// Hash-conses *slices* of `T` into dense `u32` ids without allocating
/// per lookup.
///
/// A map keyed on `Vec<T>` forces callers to build an owned `Vec` just
/// to probe — exactly the allocation the hot path is trying to shed.
/// `SliceInterner` stores every interned slice contiguously in one
/// arena and probes an open-addressing index with the *borrowed* slice,
/// so the common hit case does no allocation at all; a miss copies the
/// slice into the arena once. Ids are handed out in
/// first-intern order and stay stable for the interner's lifetime (no
/// deletion), so two ids are equal iff their slices are equal — the
/// hash-consing invariant the scheduler's signature builder leans on.
#[derive(Debug, Clone)]
pub struct SliceInterner<T> {
    /// All interned slices, back to back.
    arena: Vec<T>,
    /// Per-id `(offset, len)` into `arena`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing index of ids; `EMPTY` marks a free bucket.
    /// Capacity is a power of two; grown at 7/8 load.
    index: Vec<u32>,
    mask: usize,
}

const EMPTY: u32 = u32::MAX;

impl<T: Hash + Eq + Copy> Default for SliceInterner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Hash + Eq + Copy> SliceInterner<T> {
    /// Creates an empty slice interner.
    pub fn new() -> Self {
        let cap = 64;
        SliceInterner {
            arena: Vec::new(),
            spans: Vec::new(),
            index: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    #[inline]
    fn hash_of(slice: &[T]) -> u64 {
        let mut h = FxHasher::default();
        for item in slice {
            item.hash(&mut h);
        }
        h.write_usize(slice.len());
        h.finish()
    }

    /// Interns `slice`, returning its id. Probes with the borrowed
    /// slice; only a first-time miss copies into the arena.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` distinct slices are interned.
    pub fn intern(&mut self, slice: &[T]) -> u32 {
        if self.spans.len() * 8 >= self.index.len() * 7 {
            self.grow();
        }
        let mut bucket = Self::hash_of(slice) as usize & self.mask;
        loop {
            match self.index[bucket] {
                EMPTY => {
                    let id = u32::try_from(self.spans.len()).expect("slice interner overflow");
                    assert!(id != EMPTY, "slice interner overflow");
                    let offset = u32::try_from(self.arena.len()).expect("slice arena overflow");
                    let len = u32::try_from(slice.len()).expect("slice too long");
                    self.arena.extend_from_slice(slice);
                    self.spans.push((offset, len));
                    self.index[bucket] = id;
                    return id;
                }
                id if self.resolve(id) == slice => return id,
                _ => bucket = (bucket + 1) & self.mask,
            }
        }
    }

    /// The id of `slice` if it has been interned (never allocates).
    pub fn lookup(&self, slice: &[T]) -> Option<u32> {
        let mut bucket = Self::hash_of(slice) as usize & self.mask;
        loop {
            match self.index[bucket] {
                EMPTY => return None,
                id if self.resolve(id) == slice => return Some(id),
                _ => bucket = (bucket + 1) & self.mask,
            }
        }
    }

    /// The slice behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &[T] {
        let (offset, len) = self.spans[id as usize];
        &self.arena[offset as usize..(offset + len) as usize]
    }

    /// Number of distinct interned slices.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn grow(&mut self) {
        let cap = self.index.len() * 2;
        self.mask = cap - 1;
        self.index.clear();
        self.index.resize(cap, EMPTY);
        for id in 0..self.spans.len() as u32 {
            let mut bucket = Self::hash_of(self.resolve(id)) as usize & self.mask;
            while self.index[bucket] != EMPTY {
                bucket = (bucket + 1) & self.mask;
            }
            self.index[bucket] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_ids_are_dense_and_content_keyed() {
        let mut si: SliceInterner<i64> = SliceInterner::new();
        let a = si.intern(&[1, 2, 3]);
        let b = si.intern(&[1, 2]);
        let a2 = si.intern(&[1, 2, 3]);
        assert_eq!((a, b, a2), (0, 1, 0));
        assert_eq!(si.len(), 2);
        assert_eq!(si.resolve(a), &[1, 2, 3]);
        assert_eq!(si.resolve(b), &[1, 2]);
        assert_eq!(si.lookup(&[1, 2]), Some(1));
        assert_eq!(si.lookup(&[2, 1]), None);
    }

    #[test]
    fn slice_interner_distinguishes_concatenations() {
        // [1,2]+[3] must not alias [1]+[2,3]: spans carry lengths.
        let mut si: SliceInterner<u64> = SliceInterner::new();
        let a = si.intern(&[1, 2]);
        let b = si.intern(&[3]);
        let c = si.intern(&[1]);
        let d = si.intern(&[2, 3]);
        assert_eq!(si.len(), 4);
        assert!(a != c && b != d);
        let empty = si.intern(&[]);
        assert_eq!(si.resolve(empty), &[] as &[u64]);
        assert_eq!(si.intern(&[]), empty);
    }

    #[test]
    fn slice_interner_survives_growth() {
        let mut si: SliceInterner<u32> = SliceInterner::new();
        let ids: Vec<u32> = (0..1000u32).map(|v| si.intern(&[v, v + 1])).collect();
        assert_eq!(si.len(), 1000);
        for (v, &id) in ids.iter().enumerate() {
            let v = v as u32;
            assert_eq!(si.resolve(id), &[v, v + 1]);
            assert_eq!(si.intern(&[v, v + 1]), id);
            assert_eq!(si.lookup(&[v, v + 1]), Some(id));
        }
    }
}
