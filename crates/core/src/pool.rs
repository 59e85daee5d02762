//! Hot-path buffer reuse for the live server.
//!
//! Every delegated connection used to allocate fresh line buffers and a
//! fresh DATA body `Vec` per transaction; under sustained load that is
//! pure allocator churn on the paper's common case. [`BufferPool`] keeps a
//! bounded free list of cleared `Vec<u8>`s: `take` hands out a recycled
//! buffer when one is available (counted as `live.pool_reuse`) and
//! allocates otherwise (`live.pool_miss`).

use crate::instruments::PoolMetrics;
use spamaware_metrics::{lock, Registry};
use std::sync::Mutex;

/// A bounded free list of reusable byte buffers.
#[derive(Debug)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Free-list bound: buffers returned beyond this are dropped.
    max_pooled: usize,
    /// Capacity pre-reserved for buffers allocated on a miss.
    default_capacity: usize,
    /// Returned buffers that grew beyond this are dropped rather than
    /// pooled, so one pathological DATA body can't pin memory forever.
    max_capacity: usize,
    metrics: PoolMetrics,
}

impl BufferPool {
    /// Creates a pool holding at most `max_pooled` buffers of
    /// `default_capacity` bytes each (initially empty — buffers enter the
    /// pool as they are returned).
    pub fn new(registry: &Registry, max_pooled: usize, default_capacity: usize) -> BufferPool {
        BufferPool {
            free: Mutex::new(Vec::with_capacity(max_pooled)),
            max_pooled,
            default_capacity,
            max_capacity: default_capacity.saturating_mul(64).max(1 << 20),
            metrics: PoolMetrics::register(registry),
        }
    }

    /// Takes a cleared buffer — recycled if available, freshly allocated
    /// otherwise. Pair with [`BufferPool::put`].
    pub fn take_vec(&self) -> Vec<u8> {
        if let Some(buf) = lock(&self.free).pop() {
            self.metrics.reuse.inc();
            return buf;
        }
        self.metrics.miss.inc();
        Vec::with_capacity(self.default_capacity)
    }

    /// Returns a buffer to the pool: cleared, and dropped instead of
    /// pooled when it never allocated, outgrew 64 × the default capacity
    /// (at least 1 MiB), or the free list is full.
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_capacity {
            return;
        }
        buf.clear();
        let mut free = lock(&self.free);
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pool(max: usize, cap: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(&Registry::with_wall_clock(), max, cap))
    }

    #[test]
    fn take_allocates_then_reuses() {
        let p = pool(4, 128);
        let mut a = p.take_vec();
        a.extend_from_slice(b"dirty");
        assert_eq!(p.metrics.miss.get(), 1);
        p.put(a);
        let b = p.take_vec();
        assert_eq!(p.metrics.reuse.get(), 1, "second take recycles");
        assert!(b.is_empty(), "returned buffer was cleared");
        assert!(b.capacity() >= 128);
    }

    #[test]
    fn free_list_is_bounded() {
        let p = pool(1, 64);
        let a = p.take_vec();
        let b = p.take_vec();
        p.put(a);
        p.put(b); // beyond max_pooled: dropped
        assert_eq!(lock(&p.free).len(), 1);
    }

    #[test]
    fn oversized_and_unallocated_buffers_are_dropped() {
        let p = pool(4, 16);
        p.put(Vec::new()); // never allocated
        p.put(Vec::with_capacity(64 << 20)); // pathologically large
        assert_eq!(lock(&p.free).len(), 0);
    }

    #[test]
    fn explicit_take_vec_put_roundtrip() {
        let p = pool(2, 32);
        let mut v = p.take_vec();
        v.extend_from_slice(b"body");
        p.put(v);
        assert_eq!(p.take_vec().len(), 0);
        assert_eq!(p.metrics.reuse.get(), 1);
    }
}
