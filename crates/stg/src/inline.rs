//! Fixed-capacity inline vectors.
//!
//! Iteration vectors are short and bounded — at most [`MAX_NEST`] loop
//! levels — and instance names are copied everywhere from the scheduler
//! to the STG's consumers. An [`InlineVec`] is a `Copy` array with a
//! length, so copying a name is a `memcpy`, never a heap allocation.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Deepest loop nest an iteration vector holds: the capacity of
/// [`IterVec`](crate::IterVec). The scheduler rejects deeper CDFGs up
/// front.
pub const MAX_NEST: usize = 8;

/// A fixed-capacity vector stored inline: up to `N` elements and a
/// length, `Copy` whenever `T` is.
///
/// Equality, order, hashing and `Debug` all go through the live slice,
/// so an `InlineVec` compares, sorts, hashes (with any hasher) and
/// prints exactly like the `Vec<T>` with the same elements. Slots past
/// the length hold filler and are never observed. Pushing past `N`
/// panics.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// The empty vector.
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// A copy of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is longer than `N`.
    pub fn from_slice(s: &[T]) -> Self {
        let mut v = Self::new();
        v.items[..s.len()].copy_from_slice(s);
        v.len = s.len() as u8;
        v
    }

    /// Appends `x`.
    ///
    /// # Panics
    ///
    /// Panics if the vector is full.
    pub fn push(&mut self, x: T) {
        self.items[usize::from(self.len)] = x;
        self.len += 1;
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialOrd, const N: usize> PartialOrd for InlineVec<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        (**self).partial_cmp(&**other)
    }
}

impl<T: Ord, const N: usize> Ord for InlineVec<T, N> {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        Self::from_slice(&v)
    }
}
