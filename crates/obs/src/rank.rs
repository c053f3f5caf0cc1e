//! Lock ranks: the product's one lock order (ARCHITECTURE.md, "Locking
//! model"). A thread takes a [`Ranked`] lock only while every one it holds
//! comes strictly earlier in [`ORDER`] — so never two of one rank — and
//! calls into the store only while every one it holds may block. A debug
//! build panics where either is broken, naming the locks; a release build
//! compiles [`Ranked::lock`] to the bare lock and [`assert_may_block`] to
//! nothing.

use std::ops::{Deref, DerefMut};

/// The lock order, outermost first: each rank's name, and whether a store
/// call may run while a lock of that rank is held.
pub const ORDER: [(&str, bool); 7] = [
    ("roles", true),
    // The stream gate exists to serialize the store reads that open a
    // stream: it is one of a fixed array, shared by the streams of its
    // stripe, and ordered before `registry`, so blocking under it stalls
    // only the cold touches, creations, deletions and imports of that
    // stripe's streams.
    ("hydrate", true),
    ("registry", false),
    ("ingest", true),
    ("writer", true),
    ("frontier", false),
    ("stripe", false),
];

// The ranks by name: `roles` is `ShardReplicas`' (service); `hydrate`,
// `registry` and `ingest` the engine's (server); the rest a tree's (index).
pub const ROLES: u8 = 0;
pub const HYDRATE: u8 = 1;
pub const REGISTRY: u8 = 2;
pub const INGEST: u8 = 3;
pub const WRITER: u8 = 4;
pub const FRONTIER: u8 = 5;
pub const STRIPE: u8 = 6;

#[cfg(debug_assertions)]
thread_local! {
    /// Bit `r` is set while this thread holds a lock of rank `r` — at most
    /// one per rank, as each is taken above all held. A byte, so the
    /// counting-allocator tests see no allocation.
    static HELD: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// A lock `L` of rank `RANK`.
#[derive(Default)]
pub struct Ranked<const RANK: u8, L>(L);

impl<const RANK: u8, L> Ranked<RANK, L> {
    /// Ranks `lock`.
    pub const fn new(lock: L) -> Self {
        Ranked(lock)
    }

    /// Takes the lock with `acquire` (`Mutex::lock`, `RwLock::read`,
    /// `RwLock::write`), first checking in a debug build that every ranked
    /// lock this thread holds comes before this one.
    #[inline]
    pub fn lock<'a, G>(&'a self, acquire: impl FnOnce(&'a L) -> G) -> Held<RANK, G> {
        #[cfg(debug_assertions)]
        {
            let held = HELD.get();
            if held >> RANK != 0 {
                let top = ORDER[7 - held.leading_zeros() as usize].0;
                let name = ORDER[RANK as usize].0;
                panic!("lock order violated: `{name}` taken while `{top}` is held");
            }
            HELD.set(held | (1 << RANK));
        }
        Held(acquire(&self.0))
    }
}

/// The guard of a [`Ranked`] lock: derefs to `acquire`'s guard.
pub struct Held<const RANK: u8, G>(G);

impl<const RANK: u8, G> Deref for Held<RANK, G> {
    type Target = G;
    fn deref(&self) -> &G {
        &self.0
    }
}

impl<const RANK: u8, G> DerefMut for Held<RANK, G> {
    fn deref_mut(&mut self) -> &mut G {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<const RANK: u8, G> Drop for Held<RANK, G> {
    fn drop(&mut self) {
        HELD.set(HELD.get() & !(1 << RANK));
    }
}

/// Panics, in a debug build, if this thread holds a ranked lock under which
/// nothing may block. Every operation of `MeteredKv` and `MemKv` calls it.
#[inline]
pub fn assert_may_block() {
    #[cfg(debug_assertions)]
    for (r, (name, may_block)) in ORDER.iter().enumerate() {
        if HELD.get() & (1 << r) != 0 && !may_block {
            panic!("store call while `{name}` is held");
        }
    }
}

#[cfg(debug_assertions)]
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn ranked<const R: u8>() -> Ranked<R, Mutex<()>> {
        Ranked::new(Mutex::new(()))
    }

    #[test]
    #[should_panic(expected = "`registry` taken while `stripe` is held")]
    fn a_stripe_then_registry_inversion_panics_naming_both() {
        let (stripe, registry) = (ranked::<STRIPE>(), ranked::<REGISTRY>());
        let _stripe = stripe.lock(|m| m.lock().unwrap());
        let _registry = registry.lock(|m| m.lock().unwrap());
    }

    #[test]
    #[should_panic(expected = "`frontier` taken while `frontier` is held")]
    fn two_locks_of_one_rank_are_not_held_together() {
        let (a, b) = (ranked::<FRONTIER>(), ranked::<FRONTIER>());
        let _a = a.lock(|m| m.lock().unwrap());
        let _b = b.lock(|m| m.lock().unwrap());
    }

    #[test]
    fn ranks_are_released_in_any_order_and_the_gate_may_block() {
        let (gate, writer) = (ranked::<HYDRATE>(), ranked::<WRITER>());
        let g = gate.lock(|m| m.lock().unwrap());
        let w = writer.lock(|m| m.lock().unwrap());
        assert_may_block();
        drop(g);
        drop(w);
        let _g = gate.lock(|m| m.lock().unwrap());
    }

    #[test]
    #[should_panic(expected = "store call while `stripe` is held")]
    fn blocking_under_a_no_block_rank_panics() {
        let stripe = ranked::<STRIPE>();
        let _held = stripe.lock(|m| m.lock().unwrap());
        assert_may_block();
    }
}
