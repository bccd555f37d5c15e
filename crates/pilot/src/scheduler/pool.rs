//! The free-slot pool: which cores and GPUs are unallocated right now.
//!
//! Free sets are fixed word-array bitmasks (bit `i` set ⇔ device `i` free).
//! Grants take the lowest set bit first (`trailing_zeros`), preserving the
//! lowest-id-first determinism contract the `BTreeSet` implementation
//! established, while capacity checks are popcount-maintained counters and
//! a whole 64-device word is scanned per instruction rather than per
//! tree node.

use crate::resources::{Allocation, NodeSpec, ResourceRequest};

/// Bitmask words with every bit in `0..total` set.
fn full_words(total: u32) -> Vec<u64> {
    let n = total.div_ceil(64) as usize;
    let mut words = vec![u64::MAX; n];
    if !total.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << (total % 64)) - 1;
        }
    }
    words
}

/// Clear the `n` lowest set bits of `words`, appending their indices (in
/// ascending order) to `out`. The caller guarantees at least `n` set bits.
fn take_lowest(words: &mut [u64], n: u32, out: &mut Vec<u32>) {
    let mut remaining = n;
    for (w, word) in words.iter_mut().enumerate() {
        while *word != 0 && remaining > 0 {
            let bit = word.trailing_zeros();
            *word &= *word - 1; // clear the lowest set bit
            out.push((w as u32) * 64 + bit);
            remaining -= 1;
        }
        if remaining == 0 {
            break;
        }
    }
    debug_assert_eq!(remaining, 0, "capacity counter out of sync with bitmask");
}

/// Free device sets for one node. Grants are lowest-id-first, so placement
/// is deterministic and device utilization traces are stable across runs.
#[derive(Debug, Clone)]
pub(crate) struct SlotPool {
    core_words: Vec<u64>,
    gpu_words: Vec<u64>,
    free_cores: u32,
    free_gpus: u32,
    total_cores: u32,
    total_gpus: u32,
    /// Reclaimed `Allocation` id buffers ([`SlotPool::release_owned`]),
    /// reused by [`SlotPool::try_alloc`] to keep the placement hot path
    /// allocation-free in steady state.
    spare: Vec<Vec<u32>>,
}

impl SlotPool {
    /// A pool with every device of `node` free.
    pub fn new(node: &NodeSpec) -> Self {
        SlotPool {
            core_words: full_words(node.cores),
            gpu_words: full_words(node.gpus),
            free_cores: node.cores,
            free_gpus: node.gpus,
            total_cores: node.cores,
            total_gpus: node.gpus,
            spare: Vec::new(),
        }
    }

    /// An empty, cleared id buffer — recycled if one is spare.
    fn id_buf(&mut self, capacity: u32) -> Vec<u32> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.reserve(capacity as usize);
        buf
    }

    /// Grant `request` if it fits, taking the lowest-numbered free devices.
    pub(crate) fn try_alloc(&mut self, request: &ResourceRequest) -> Option<Allocation> {
        if self.free_cores < request.cores || self.free_gpus < request.gpus {
            return None;
        }
        let mut core_ids = self.id_buf(request.cores);
        let mut gpu_ids = self.id_buf(request.gpus);
        take_lowest(&mut self.core_words, request.cores, &mut core_ids);
        take_lowest(&mut self.gpu_words, request.gpus, &mut gpu_ids);
        self.free_cores -= request.cores;
        self.free_gpus -= request.gpus;
        Some(Allocation {
            node: 0,
            core_ids,
            gpu_ids,
        })
    }

    /// Return an allocation's devices. Panics on double-release — returning
    /// a device that is already free means the accounting is corrupt.
    pub fn release(&mut self, alloc: &Allocation) {
        for &c in &alloc.core_ids {
            assert!(c < self.total_cores, "core id {c} out of range");
            let mask = 1u64 << (c % 64);
            let word = &mut self.core_words[(c / 64) as usize];
            assert!(*word & mask == 0, "double release of core {c}");
            *word |= mask;
        }
        for &g in &alloc.gpu_ids {
            assert!(g < self.total_gpus, "gpu id {g} out of range");
            let mask = 1u64 << (g % 64);
            let word = &mut self.gpu_words[(g / 64) as usize];
            assert!(*word & mask == 0, "double release of gpu {g}");
            *word |= mask;
        }
        self.free_cores += alloc.core_ids.len() as u32;
        self.free_gpus += alloc.gpu_ids.len() as u32;
    }

    /// [`SlotPool::release`], additionally reclaiming the allocation's id
    /// buffers for reuse by future grants.
    pub fn release_owned(&mut self, alloc: Allocation) {
        self.release(&alloc);
        let Allocation {
            core_ids, gpu_ids, ..
        } = alloc;
        // A small cap keeps a burst of releases from hoarding memory.
        if self.spare.len() < 8 {
            self.spare.push(core_ids);
        }
        if self.spare.len() < 8 {
            self.spare.push(gpu_ids);
        }
    }

    /// Free core count.
    pub(crate) fn cores_free(&self) -> u32 {
        self.free_cores
    }

    /// Free GPU count.
    pub(crate) fn gpus_free(&self) -> u32 {
        self.free_gpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_round_trip() {
        let mut p = SlotPool::new(&NodeSpec::new(4, 2, 1));
        let a = p.try_alloc(&ResourceRequest::with_gpus(3, 1)).unwrap();
        assert_eq!(a.core_ids, vec![0, 1, 2]);
        assert_eq!(a.gpu_ids, vec![0]);
        assert_eq!(p.cores_free(), 1);
        p.release(&a);
        assert_eq!(p.cores_free(), 4);
        assert_eq!(p.gpus_free(), 2);
    }

    #[test]
    fn insufficient_capacity_returns_none_without_partial_grant() {
        let mut p = SlotPool::new(&NodeSpec::new(4, 1, 1));
        assert!(p.try_alloc(&ResourceRequest::with_gpus(2, 2)).is_none());
        // Nothing was taken.
        assert_eq!(p.cores_free(), 4);
        assert_eq!(p.gpus_free(), 1);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut p = SlotPool::new(&NodeSpec::new(2, 0, 1));
        let a = p.try_alloc(&ResourceRequest::cores(1)).unwrap();
        p.release(&a);
        p.release(&a);
    }

    #[test]
    fn grants_reuse_lowest_ids_after_release() {
        let mut p = SlotPool::new(&NodeSpec::new(4, 0, 1));
        let a = p.try_alloc(&ResourceRequest::cores(2)).unwrap(); // 0,1
        let _b = p.try_alloc(&ResourceRequest::cores(2)).unwrap(); // 2,3
        p.release(&a);
        let c = p.try_alloc(&ResourceRequest::cores(1)).unwrap();
        assert_eq!(c.core_ids, vec![0]);
    }

    #[test]
    fn grants_cross_word_boundaries_in_order() {
        // 100 cores spans two mask words; a 70-core grant must walk both.
        let mut p = SlotPool::new(&NodeSpec::new(100, 0, 1));
        let a = p.try_alloc(&ResourceRequest::cores(70)).unwrap();
        assert_eq!(a.core_ids, (0..70).collect::<Vec<u32>>());
        assert_eq!(p.cores_free(), 30);
        let b = p.try_alloc(&ResourceRequest::cores(30)).unwrap();
        assert_eq!(b.core_ids, (70..100).collect::<Vec<u32>>());
        p.release(&a);
        p.release(&b);
        assert_eq!(p.cores_free(), 100);
    }

    #[test]
    fn exact_64_device_node_has_no_phantom_bit() {
        let mut p = SlotPool::new(&NodeSpec::new(64, 0, 1));
        assert_eq!(p.cores_free(), 64);
        let a = p.try_alloc(&ResourceRequest::cores(64)).unwrap();
        assert_eq!(a.core_ids.len(), 64);
        assert!(p.try_alloc(&ResourceRequest::cores(1)).is_none());
    }

    #[test]
    fn release_owned_recycles_buffers() {
        let mut p = SlotPool::new(&NodeSpec::new(8, 0, 1));
        let a = p.try_alloc(&ResourceRequest::cores(4)).unwrap();
        p.release_owned(a);
        assert_eq!(p.spare.len(), 2, "both id buffers reclaimed");
        // The recycled grant is identical to a fresh one.
        let b = p.try_alloc(&ResourceRequest::cores(4)).unwrap();
        assert_eq!(b.core_ids, vec![0, 1, 2, 3]);
        assert!(b.gpu_ids.is_empty());
        assert_eq!(p.spare.len(), 0, "buffers handed back out");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_release_panics() {
        let mut p = SlotPool::new(&NodeSpec::new(4, 0, 1));
        p.release(&Allocation {
            node: 0,
            core_ids: vec![9],
            gpu_ids: vec![],
        });
    }
}
