//! Pooled message buffers: a per-world free-list of `Vec<f64>` grouped
//! into power-of-two capacity classes.
//!
//! Real overlap runtimes keep persistent communication buffers precisely
//! because per-message heap traffic serializes against the allocator and
//! wrecks the latency the overlap was meant to hide. Here every message
//! buffer is a [`PooledBuf`] lease: acquired from the world's
//! [`BufferPool`] (recycling a previously retired buffer when one of the
//! right capacity class is free), and returned to the pool automatically
//! when the lease drops. After warm-up a steady-state halo exchange
//! allocates no new buffers at all — asserted by tests through
//! [`crate::CommStats::buffers_allocated`].

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, PoisonError};

/// Smallest capacity class handed out, so tiny messages (allreduce-sized)
/// share one class instead of fragmenting the pool.
const MIN_CLASS: usize = 64;

/// The capacity class a request of `len` values is served from.
fn class_for_len(len: usize) -> usize {
    len.next_power_of_two().max(MIN_CLASS)
}

/// A world-wide free-list of retired message buffers, keyed by capacity
/// class.
pub(crate) struct BufferPool {
    classes: Mutex<HashMap<usize, Vec<Vec<f64>>>>,
}

impl BufferPool {
    pub fn new() -> Self {
        Self {
            classes: Mutex::new(HashMap::new()),
        }
    }

    /// Lease a buffer of exactly `len` values. Returns the lease and
    /// whether it was served by recycling (`true`) or required a fresh
    /// heap allocation (`false`). Recycled contents are overwritten by
    /// `resize`/`pack` before use; values beyond a recycled buffer's
    /// previous length are zeroed.
    pub fn lease(self: &Arc<Self>, len: usize) -> (PooledBuf, bool) {
        let class = class_for_len(len);
        let reused = {
            let mut classes = self.classes.lock().unwrap_or_else(PoisonError::into_inner);
            classes.get_mut(&class).and_then(|free| free.pop())
        };
        let recycled = reused.is_some();
        let mut data = reused.unwrap_or_else(|| Vec::with_capacity(class));
        data.resize(len, 0.0);
        (
            PooledBuf {
                data,
                pool: Some(self.clone()),
            },
            recycled,
        )
    }

    /// Return a retired buffer to the free list. Buffers too small to
    /// serve the minimum class are dropped.
    fn recycle(&self, data: Vec<f64>) {
        let capacity = data.capacity();
        if capacity < MIN_CLASS {
            return;
        }
        // Largest class the buffer can serve without reallocating.
        let class = (1usize << (usize::BITS - 1)) >> capacity.leading_zeros();
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(class)
            .or_default()
            .push(data);
    }

    /// Number of buffers currently parked in the free list (diagnostic).
    pub fn free_buffers(&self) -> usize {
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|v| v.len())
            .sum()
    }
}

/// A leased message buffer: derefs to `[f64]`, returns itself to the
/// world's buffer pool when dropped.
///
/// `recv`/`wait` return leases, so a receive's payload recycles into the
/// pool as soon as the caller is done with it; `send_pooled` consumes a
/// lease without recycling (the payload travels to the destination, whose
/// receive re-leases it).
pub struct PooledBuf {
    data: Vec<f64>,
    pool: Option<Arc<BufferPool>>,
}

impl PooledBuf {
    /// Wrap a raw vector as a lease on `pool` (used by receives: the
    /// payload arrived as a plain vector and retires into the pool).
    pub(crate) fn attach(data: Vec<f64>, pool: Arc<BufferPool>) -> Self {
        Self {
            data,
            pool: Some(pool),
        }
    }

    /// Detach the underlying vector, bypassing recycling (used by
    /// `send_pooled`: the buffer moves to the destination mailbox).
    pub fn into_vec(mut self) -> Vec<f64> {
        self.pool = None;
        std::mem::take(&mut self.data)
    }

    /// Number of values in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for PooledBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.data
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.data.len())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle(std::mem::take(&mut self.data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycles_after_drop() {
        let pool = Arc::new(BufferPool::new());
        let (a, recycled) = pool.lease(100);
        assert!(!recycled);
        assert_eq!(a.len(), 100);
        let cap = a.data.capacity();
        drop(a);
        assert_eq!(pool.free_buffers(), 1);
        let (b, recycled) = pool.lease(120);
        assert!(recycled, "120 and 100 share the 128 class");
        assert_eq!(b.len(), 120);
        assert_eq!(b.data.capacity(), cap, "no reallocation on recycle");
    }

    #[test]
    fn distinct_classes_do_not_cross() {
        let pool = Arc::new(BufferPool::new());
        let (a, _) = pool.lease(64);
        drop(a);
        let (b, recycled) = pool.lease(1000);
        assert!(!recycled, "a 64-class buffer cannot serve a 1024 lease");
        assert_eq!(b.len(), 1000);
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let pool = Arc::new(BufferPool::new());
        let (a, _) = pool.lease(10);
        let v = a.into_vec();
        assert_eq!(v.len(), 10);
        assert_eq!(pool.free_buffers(), 0);
    }

    #[test]
    fn recycled_tail_is_zeroed() {
        let pool = Arc::new(BufferPool::new());
        let (mut a, _) = pool.lease(10);
        a.iter_mut().for_each(|v| *v = 7.0);
        drop(a);
        let (b, recycled) = pool.lease(20);
        assert!(recycled);
        assert!(b[10..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn class_for_len_is_a_power_of_two_at_least_min() {
        for len in [0usize, 1, 63, 64, 65, 100, 128, 1 << 20] {
            let c = class_for_len(len);
            assert!(c >= len.max(MIN_CLASS));
            assert!(c.is_power_of_two());
        }
    }
}
