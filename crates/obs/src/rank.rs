//! Lock ranks: the product's one lock order (ARCHITECTURE.md, "Locking
//! model"). A thread takes a [`Ranked`] lock, or [`Stripes`], only while
//! every one it holds comes strictly earlier in [`ORDER`] — so never two of
//! one rank — and calls into the store only while every one it holds may
//! block. A debug build panics where either is broken, naming the locks; a
//! release build compiles [`Ranked::lock`] to the bare lock and
//! [`assert_may_block`] to nothing.

use std::ops::{Deref, DerefMut};

/// The lock order, outermost first: each rank's name, and whether a store
/// call may run while a lock of that rank is held.
pub const ORDER: [(&str, bool); 7] = [
    // A write's admission shares, held across its exchanges (in process,
    // across the engine's calls too).
    ("admission", true),
    ("roles", true),
    // A stream's stripe serializes its writes and hydration, store calls
    // included: it stalls only its stripe's writers and cold touches.
    ("stream", true),
    ("registry", false),
    ("writer", true),
    ("frontier", false),
    ("cache", false),
];

// The ranks by name: `admission` and `roles` are the coordinator's
// (service); `stream` and `registry` the engine's (server); the rest a
// tree's (index).
pub const ADMISSION: u8 = 0;
pub const ROLES: u8 = 1;
pub const STREAM: u8 = 2;
pub const REGISTRY: u8 = 3;
pub const WRITER: u8 = 4;
pub const FRONTIER: u8 = 5;
pub const CACHE: u8 = 6;

#[cfg(debug_assertions)]
thread_local! {
    /// Bit `r` is set while this thread holds a lock of rank `r` — at most
    /// one per rank, as each is taken above all held. A byte, so the
    /// counting-allocator tests see no allocation.
    static HELD: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// Marks `RANK` held by this thread, first checking (debug builds) the order.
#[inline]
fn enter<const RANK: u8>() {
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
    /// `RwLock::write`), first checking the order in a debug build.
    #[inline]
    pub fn lock<'a, G>(&'a self, acquire: impl FnOnce(&'a L) -> G) -> Held<RANK, G> {
        enter::<RANK>();
        Held(acquire(&self.0))
    }
}

const STRIPES: usize = 1024;

/// The stripe of stream `id`: its id's own bits, folded — not a mix of
/// them, as the router picks a shard by one, and a shard's streams would
/// then reach only a fraction of the stripes.
pub fn stripe(id: u128) -> usize {
    (id as u64 ^ (id >> 64) as u64) as usize % STRIPES
}

/// A tier's per-stream lock: a fixed table of 1 024 locks `L` of rank
/// `RANK`, in which stream `id`'s is its [`stripe`]'s.
pub struct Stripes<const RANK: u8, L>([L; STRIPES]);

impl<const RANK: u8, L: Default> Default for Stripes<RANK, L> {
    fn default() -> Self {
        Stripes(std::array::from_fn(|_| L::default()))
    }
}

impl<const RANK: u8, L> Stripes<RANK, L> {
    /// Takes the stripe of `id` with `acquire`, as [`Ranked::lock`] does.
    #[inline]
    pub fn lock<'a, G>(&'a self, id: u128, acquire: impl FnOnce(&'a L) -> G) -> Held<RANK, G> {
        enter::<RANK>();
        Held(acquire(&self.0[stripe(id)]))
    }

    /// Takes the stripes of `ids`, each once and in ascending order, as
    /// *one* acquisition of the rank, so no two sets wait on each other in
    /// a cycle. A single stripe allocates nothing.
    pub fn lock_all<'a, G>(
        &'a self,
        ids: impl IntoIterator<Item = u128>,
        mut acquire: impl FnMut(&'a L) -> G,
    ) -> Held<RANK, (Option<G>, Vec<G>)> {
        // The stripes as a bit set, drawn lowest first.
        let mut taken = [0u64; STRIPES / 64];
        for s in ids.into_iter().map(stripe) {
            taken[s / 64] |= 1 << (s % 64);
        }
        let ascending = (taken.into_iter().enumerate()).flat_map(|(word, mut bits)| {
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(word * 64 + bit)
            })
        });
        enter::<RANK>();
        let mut guards = ascending.map(|s| acquire(&self.0[s]));
        Held((guards.next(), guards.collect()))
    }
}

/// The guard of a [`Ranked`] lock or [`Stripes`]: derefs to `acquire`'s.
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
/// nothing may block. Every operation of `LogKv`, the one store engine, calls it.
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
    #[should_panic(expected = "`registry` taken while `cache` is held")]
    fn a_cache_then_registry_inversion_panics_naming_both() {
        let (cache, registry) = (ranked::<CACHE>(), ranked::<REGISTRY>());
        let _cache = cache.lock(|m| m.lock().unwrap());
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
    fn ranks_are_released_in_any_order_and_a_stream_stripe_may_block() {
        let (stripes, writer) = (Stripes::<STREAM, Mutex<()>>::default(), ranked::<WRITER>());
        let s = stripes.lock(1, |m| m.lock().unwrap());
        let w = writer.lock(|m| m.lock().unwrap());
        assert_may_block();
        drop(s);
        drop(w);
        let _s = stripes.lock(1, |m| m.lock().unwrap());
    }

    #[test]
    #[should_panic(expected = "store call while `cache` is held")]
    fn blocking_under_a_no_block_rank_panics() {
        let cache = ranked::<CACHE>();
        let _held = cache.lock(|m| m.lock().unwrap());
        assert_may_block();
    }

    #[test]
    fn lock_all_takes_each_distinct_stripe_once_in_ascending_order() {
        let stripes = Stripes::<ADMISSION, Mutex<()>>::default();
        let at = |m: &Mutex<()>| m as *const Mutex<()> as usize;
        // Out of order, with repeats: an id twice, and ids sharing a stripe.
        let ids = [900, 3, (1 << 64) | 5, 3, 1027, 64, 4];
        let mut want: Vec<usize> = ids.iter().map(|&id| *stripes.lock(id, at)).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(want.len(), 4, "stripes 900, 3, 4 and 64");
        let held = stripes.lock_all(ids, |m| (at(m), m.lock().unwrap()));
        let (first, rest) = &*held;
        let took: Vec<usize> = first.iter().chain(rest).map(|(at, _)| *at).collect();
        assert_eq!(took, want);
    }

    #[test]
    #[should_panic(expected = "`admission` taken while `admission` is held")]
    fn a_second_lock_all_on_one_thread_panics() {
        let stripes = Stripes::<ADMISSION, Mutex<()>>::default();
        let _a = stripes.lock_all([1], |m| m.lock().unwrap());
        let _b = stripes.lock_all([2], |m| m.lock().unwrap());
    }

    #[test]
    #[should_panic(expected = "`admission` taken while `roles` is held")]
    fn admission_under_roles_panics() {
        let (roles, stripes) = (
            ranked::<ROLES>(),
            Stripes::<ADMISSION, Mutex<()>>::default(),
        );
        let _roles = roles.lock(|m| m.lock().unwrap());
        let _admitted = stripes.lock_all([1], |m| m.lock().unwrap());
    }
}
