//! Folding equivalent states: signatures and fold-edge renames.

use super::*;

impl Engine<'_> {
    /// Hashed canonical signature of a context, timed under the
    /// `signature` phase; leaves the context's canonical keys in
    /// `self.sig`. Every probed signature is appended to the trail for
    /// differential testing.
    pub(super) fn hashed_signature(&mut self, ctx: &Ctx) -> u128 {
        let t = Instant::now();
        let sig = ctx.signature_hash(self.g, &mut self.mgr, &self.it, &mut self.sig);
        self.stats.phases.signature.add(t.elapsed());
        self.sig_trail.push(sig);
        sig
    }
}

/// Register relabelings for a fold edge: `new_keys` are the folding
/// context's canonical keys, `old_keys` the fold target's.
///
/// Equal signatures guarantee the two contexts' value registries
/// correspond positionally *in content order* (the signature serializes
/// `avail` content-sorted), so the rename map simply pairs the folding
/// context's canonical keys with the fold target's — realizing the
/// variable relabelings of Example 10 without re-deriving shifts.
pub(super) fn fold_renames(
    new_keys: &[Key],
    old_keys: &[Key],
    slots: &mut FxHashMap<Key, u32>,
    stg: &mut Stg,
    it: &InstTable,
) -> Vec<(u32, u32)> {
    debug_assert_eq!(new_keys.len(), old_keys.len(), "signature collision");
    let moved = || {
        new_keys
            .iter()
            .zip(old_keys)
            .filter(|(new, old)| new != old)
    };
    // Sized exactly: fold edges hold most of a large STG.
    let mut renames = Vec::with_capacity(moved().count());
    renames.extend(
        moved().map(|(&new, &old)| (slot_of(slots, stg, it, new), slot_of(slots, stg, it, old))),
    );
    renames
}
