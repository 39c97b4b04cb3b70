//! Recycling allocation pools for the hot event loop.
//!
//! At paper scale every protocol callback used to allocate (and drop)
//! a fresh `Vec<Action>`, and every transmission a receiver
//! batch — millions of short-lived heap round-trips per run. The PR 4
//! shared-`Frame` steal removed the per-receiver payload clones; this
//! module extends that toward a steady-state zero-allocation loop by
//! keeping cleared buffers on a small free list instead of returning
//! them to the allocator.
//!
//! The pool is **capacity-preserving and content-free**: a recycled
//! `Vec` is always handed out empty (`clear()` on `put`), so reuse is
//! observationally identical to a fresh allocation (unit-tested
//! below), and the kernel has no other buffer source.
//!
//! Determinism note: the free list is a plain LIFO `Vec` — no hashing,
//! no capacity-dependent iteration — so it cannot perturb event order
//! even in principle.

/// A LIFO free list of reusable `Vec<T>` buffers.
#[derive(Debug)]
pub struct VecPool<T> {
    spares: Vec<Vec<T>>,
    max_spares: usize,
    takes: u64,
    reuses: u64,
}

impl<T> VecPool<T> {
    /// An empty pool retaining at most `max_spares` buffers; beyond
    /// that, returned buffers are dropped (bounds worst-case memory).
    pub fn new(max_spares: usize) -> Self {
        VecPool { spares: Vec::new(), max_spares, takes: 0, reuses: 0 }
    }

    /// Hands out an empty buffer, recycled if one is spare.
    pub fn take(&mut self) -> Vec<T> {
        self.takes += 1;
        match self.spares.pop() {
            Some(buf) => {
                self.reuses += 1;
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the pool. Contents are cleared here, so a
    /// pooled buffer is indistinguishable from a fresh one.
    pub fn put(&mut self, mut buf: Vec<T>) {
        if self.spares.len() < self.max_spares {
            buf.clear();
            self.spares.push(buf);
        }
    }

    /// Buffers currently on the free list.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }

    /// Whether the next [`VecPool::take`] will recycle rather than
    /// allocate (the profiler's pool-hit/miss probe).
    pub fn has_spare(&self) -> bool {
        !self.spares.is_empty()
    }

    /// Total `take` calls.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// `take` calls satisfied by recycling (no allocation).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_lifo_and_capacity_preserving() {
        let mut pool: VecPool<u32> = VecPool::new(4);
        let mut a = pool.take();
        assert_eq!(pool.reuses(), 0, "first take allocates");
        a.reserve(100);
        let cap = a.capacity();
        a.extend([1, 2, 3]);
        pool.put(a);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers are handed out empty");
        assert_eq!(b.capacity(), cap, "recycling preserves grown capacity");
        assert_eq!(pool.reuses(), 1);
        assert_eq!(pool.takes(), 2);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool: VecPool<u8> = VecPool::new(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.spares(), 2, "beyond max_spares buffers are dropped");
    }

    #[test]
    fn steady_state_never_allocates() {
        let mut pool: VecPool<u64> = VecPool::new(8);
        // Warm-up: one buffer in flight at a time.
        for round in 0..100u64 {
            let mut buf = pool.take();
            buf.extend(0..10);
            pool.put(buf);
            if round > 0 {
                assert_eq!(pool.takes(), pool.reuses() + 1, "only the first take allocated");
            }
        }
    }
}
