//! Pool-limit writeback to a backing swap device.
//!
//! Kernel zswap bounds its pools (`max_pool_percent`) and, under pressure,
//! writes the oldest compressed objects back to the real swap device. This
//! module reproduces that mechanism: a [`SwapDevice`] models the block
//! device (milliseconds-class latency, near-zero $/GB), and
//! [`WritebackQueue`] keeps per-tier insertion order so the coldest (oldest)
//! objects leave first. TierScape's daemon normally keeps pools bounded via
//! the §6.7 filter, but writeback is the kernel's backstop when it cannot.

use crate::tier::{CompressedTier, StoredPage};
use crate::{ZswapError, ZswapResult};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// A slot on the swap device holding one written-back page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwapSlot(pub u64);

/// Modeled swap block device.
#[derive(Debug, Default)]
pub struct SwapDevice {
    slots: BTreeMap<u64, Vec<u8>>,
    next: u64,
    /// Cumulative writeback writes.
    pub writes: u64,
    /// Cumulative swap-in reads.
    pub reads: u64,
}

impl SwapDevice {
    /// Read latency of one page-sized I/O (NVMe-class), in ns.
    pub const READ_NS: f64 = 80_000.0;
    /// Write latency of one page-sized I/O, in ns.
    pub const WRITE_NS: f64 = 20_000.0;
    /// $/GB of swap-backing flash, normalized to DRAM = 3.0.
    pub const COST_PER_GB: f64 = 0.03;

    /// Create an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `data`, returning the slot.
    pub fn write(&mut self, data: Vec<u8>) -> SwapSlot {
        let slot = self.next;
        self.next += 1;
        self.slots.insert(slot, data);
        self.writes += 1;
        SwapSlot(slot)
    }

    /// Read and free a slot.
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] (stale handle semantics) when the slot is free.
    pub fn read(&mut self, slot: SwapSlot) -> ZswapResult<Vec<u8>> {
        self.reads += 1;
        self.slots
            .remove(&slot.0)
            .ok_or(ZswapError::Pool(ts_zpool::PoolError::BadHandle))
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.slots.values().map(|v| v.len() as u64).sum()
    }

    /// TCO of the device's current contents (normalized $).
    pub fn tco_cost(&self) -> f64 {
        Self::COST_PER_GB * self.used_bytes() as f64 / (1u64 << 30) as f64
    }
}

/// One page written back from a tier to the swap device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackEvent {
    /// The tier-resident identity the caller held.
    pub evicted: StoredPage,
    /// Where the compressed bytes now live.
    pub slot: SwapSlot,
}

/// Insertion-ordered queue of live objects in one tier (the kernel keeps an
/// LRU; insertion order approximates it for write-once compressed pages).
#[derive(Debug, Default)]
pub struct WritebackQueue {
    order: VecDeque<StoredPage>,
}

impl WritebackQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note a freshly stored page (call after every successful store).
    pub fn push(&mut self, stored: StoredPage) {
        if !stored.is_same_filled() {
            self.order.push_back(stored);
        }
    }

    /// Evict oldest objects from `tier` into `device` until its pool drops
    /// to `limit_bytes` or the queue runs dry. Entries whose handle is stale
    /// (already faulted/invalidated) are skipped. Returns the events plus
    /// the modeled cost in ns (pool reads + device writes).
    pub fn enforce_limit(
        &mut self,
        tier: &mut CompressedTier,
        device: &mut SwapDevice,
        limit_bytes: u64,
    ) -> (Vec<WritebackEvent>, f64) {
        let mut events = Vec::new();
        let mut cost = 0.0;
        while tier.pool_stats().pool_bytes() > limit_bytes {
            let Some(candidate) = self.order.pop_front() else {
                break;
            };
            match tier.peek_compressed(candidate) {
                Ok(bytes) => {
                    cost += tier
                        .config()
                        .media
                        .default_spec()
                        .stream_ns(bytes.len() as u64)
                        + SwapDevice::WRITE_NS;
                    let slot = device.write(bytes);
                    tier.invalidate(candidate).expect("candidate was live");
                    tier.note_writeback();
                    events.push(WritebackEvent {
                        evicted: candidate,
                        slot,
                    });
                }
                Err(_) => {
                    // Stale entry (page already faulted out): skip.
                }
            }
        }
        (events, cost)
    }

    /// Live-queue length (including possibly stale entries).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierConfig;
    use crate::tier::TierId;
    use std::sync::Arc;
    use ts_mem::{Machine, MediaKind, PAGE_SIZE};

    fn tier() -> CompressedTier {
        let machine = Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 32 << 20)
                .node(MediaKind::Nvmm, 32 << 20)
                .build(),
        );
        CompressedTier::new(TierId(0), TierConfig::ct1(), machine).unwrap()
    }

    fn page(tag: u8) -> Vec<u8> {
        let mut p = Vec::with_capacity(PAGE_SIZE);
        while p.len() < PAGE_SIZE {
            p.extend_from_slice(&[tag, b'-', tag.wrapping_add(3), b';']);
        }
        p.truncate(PAGE_SIZE);
        p
    }

    #[test]
    fn writeback_enforces_pool_limit_oldest_first() {
        let mut t = tier();
        let mut q = WritebackQueue::new();
        let mut dev = SwapDevice::new();
        let mut stored = Vec::new();
        for i in 0..64u8 {
            let s = t.store(&page(i)).unwrap();
            q.push(s);
            stored.push(s);
        }
        let before = t.pool_stats().pool_bytes();
        let limit = before / 2;
        let (events, cost) = q.enforce_limit(&mut t, &mut dev, limit);
        assert!(!events.is_empty());
        assert!(cost > 0.0);
        assert!(t.pool_stats().pool_bytes() <= limit);
        // Oldest entries went first.
        assert_eq!(events[0].evicted, stored[0]);
        assert_eq!(dev.writes, events.len() as u64);
        assert!(dev.used_bytes() > 0);
    }

    #[test]
    fn swapped_in_bytes_decompress_to_the_original_page() {
        let mut t = tier();
        let mut q = WritebackQueue::new();
        let mut dev = SwapDevice::new();
        let s = t.store(&page(9)).unwrap();
        q.push(s);
        let (events, _) = q.enforce_limit(&mut t, &mut dev, 0);
        assert_eq!(events.len(), 1);
        let bytes = dev.read(events[0].slot).unwrap();
        let mut out = Vec::new();
        t.config()
            .algorithm
            .codec()
            .decompress(&bytes, &mut out)
            .unwrap();
        assert_eq!(out, page(9));
        // Slot freed after read.
        assert!(dev.read(events[0].slot).is_err());
    }

    #[test]
    fn stale_entries_skipped() {
        let mut t = tier();
        let mut q = WritebackQueue::new();
        let mut dev = SwapDevice::new();
        let a = t.store(&page(1)).unwrap();
        let b = t.store(&page(2)).unwrap();
        q.push(a);
        q.push(b);
        // Fault `a` back: its queue entry becomes stale.
        let _ = t.load(a).unwrap();
        let (events, _) = q.enforce_limit(&mut t, &mut dev, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].evicted, b);
    }

    #[test]
    fn same_filled_pages_never_queued() {
        let mut t = tier();
        let mut q = WritebackQueue::new();
        let s = t.store(&vec![0u8; PAGE_SIZE]).unwrap();
        q.push(s);
        assert!(
            q.is_empty(),
            "markers occupy no pool space, nothing to write back"
        );
    }

    // Pins the cost-model geometry the writeback economics rely on, at
    // compile time.
    #[test]
    fn swap_is_by_far_the_cheapest_medium() {
        const {
            assert!(SwapDevice::COST_PER_GB < 0.2);
            assert!(
                SwapDevice::READ_NS > 10.0 * 2_500.0,
                "and by far the slowest"
            );
        }
    }
}
