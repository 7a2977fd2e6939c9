//! Key-value store workloads: Memcached- and Redis-like access patterns.
//!
//! Reproduces the paper's KV setups (§8.1): Memcached loaded with ~42 GB of
//! 1 KB / 4 KB objects driven by memtier (Gaussian key pattern) or YCSB
//! workloadc (Zipfian reads), and a Redis-like store driven by YCSB. The
//! address space is laid out as a hash index region (hot, binary) followed by
//! the value heap; a GET touches one or two index pages plus the pages the
//! value spans.

use crate::corpus::PageClass;
use crate::dist::{fnv1a, GaussianPicker, UniformPicker, Zipfian};
use crate::{Access, Workload, PAGE_SIZE};

/// Slab item header size in bytes (memcached's per-item overhead class).
const ITEM_HEADER: u64 = 64;

/// Key popularity distribution for a KV workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// YCSB zipfian (scrambled), theta = 0.99.
    Zipfian,
    /// memtier-style Gaussian over the key range.
    Gaussian,
    /// Uniform.
    Uniform,
}

/// A memcached/redis-like in-memory KV store workload.
#[derive(Debug)]
pub struct KvStore {
    name: String,
    description: String,
    value_size: usize,
    index_pages: u64,
    value_pages: u64,
    read_ratio: f64,
    seed: u64,
    zipf: Option<Zipfian>,
    gauss: Option<GaussianPicker>,
    unif: Option<UniformPicker>,
    coin: UniformPicker,
    /// Pending page accesses of the op in flight.
    pending: Vec<Access>,
}

impl KvStore {
    /// Create a KV workload.
    ///
    /// * `rss_bytes` — total resident size; ~4 % goes to the index region,
    ///   the rest to values.
    /// * `value_size` — object size in bytes (1024 and 4096 in the paper).
    /// * `dist` — key popularity distribution.
    /// * `read_ratio` — fraction of GETs (YCSB workloadc is read-only; we
    ///   default SETs to 5 % for memtier-style mixes).
    pub fn new(
        name: impl Into<String>,
        rss_bytes: u64,
        value_size: usize,
        dist: KeyDist,
        read_ratio: f64,
        seed: u64,
    ) -> Self {
        let index_bytes = (rss_bytes / 25).max(PAGE_SIZE as u64);
        let value_bytes = rss_bytes.saturating_sub(index_bytes).max(PAGE_SIZE as u64);
        // Each item carries a 64-byte slab header (as in memcached), so
        // page-sized values straddle page boundaries like they do in
        // production slab allocators.
        let n_keys =
            (value_bytes.saturating_sub(ITEM_HEADER) / (value_size as u64 + ITEM_HEADER)).max(1);
        let index_pages = index_bytes.div_ceil(PAGE_SIZE as u64);
        let value_pages = value_bytes.div_ceil(PAGE_SIZE as u64);
        let (zipf, gauss, unif) = match dist {
            KeyDist::Zipfian => (
                Some(Zipfian::new(n_keys, Zipfian::DEFAULT_THETA, seed).scrambled()),
                None,
                None,
            ),
            KeyDist::Gaussian => (None, Some(GaussianPicker::new(n_keys, seed)), None),
            KeyDist::Uniform => (None, None, Some(UniformPicker::new(n_keys, seed))),
        };
        KvStore {
            name: name.into(),
            description: format!(
                "KV store: {n_keys} keys x {value_size} B values, {dist:?} popularity"
            ),
            value_size,
            index_pages,
            value_pages,
            read_ratio,
            seed,
            zipf,
            gauss,
            unif,
            coin: UniformPicker::new(1_000_000, seed ^ 0xC01),
            pending: Vec::with_capacity(4),
        }
    }

    fn next_key(&mut self) -> u64 {
        if let Some(z) = self.zipf.as_mut() {
            z.next_key()
        } else if let Some(g) = self.gauss.as_mut() {
            g.next_key()
        } else {
            self.unif
                .as_mut()
                .expect("one distribution is set")
                .next_key()
        }
    }

    /// Byte address of a key's value (slab items packed contiguously, each
    /// preceded by its header).
    fn value_addr(&self, key: u64) -> u64 {
        self.index_pages * PAGE_SIZE as u64
            + key * (self.value_size as u64 + ITEM_HEADER)
            + ITEM_HEADER
    }

    /// Byte address of a key's hash-index bucket.
    fn index_addr(&self, key: u64) -> u64 {
        let bucket = fnv1a(key) % (self.index_pages * (PAGE_SIZE as u64 / 64));
        bucket * 64
    }
}

impl Workload for KvStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn rss_bytes(&self) -> u64 {
        (self.index_pages + self.value_pages) * PAGE_SIZE as u64
    }

    fn page_class(&self, page: u64) -> PageClass {
        if page < self.index_pages {
            return PageClass::Binary;
        }
        // Value pages: a realistic mix of content kinds, stable per page.
        match fnv1a(page ^ self.seed) % 100 {
            0..=49 => PageClass::Text,
            50..=79 => PageClass::Binary,
            80..=89 => PageClass::HighlyCompressible,
            _ => PageClass::Incompressible,
        }
    }

    fn content_seed(&self) -> u64 {
        self.seed
    }

    fn next_access(&mut self) -> Access {
        if let Some(a) = self.pending.pop() {
            return a;
        }
        let key = self.next_key();
        let is_store = (self.coin.next_key() as f64 / 1_000_000.0) >= self.read_ratio;
        // Value pages touched (reverse order so pop() walks forward).
        let start = self.value_addr(key);
        let end = start + self.value_size as u64 - 1;
        let first_page = start / PAGE_SIZE as u64;
        let last_page = end / PAGE_SIZE as u64;
        for p in (first_page..=last_page).rev() {
            self.pending.push(Access {
                addr: p * PAGE_SIZE as u64,
                is_store,
            });
        }
        // The index lookup happens first.
        Access {
            addr: self.index_addr(key),
            is_store: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dist: KeyDist, vsize: usize) -> KvStore {
        KvStore::new("test", 64 << 20, vsize, dist, 0.95, 11)
    }

    #[test]
    fn rss_close_to_requested() {
        let s = store(KeyDist::Zipfian, 1024);
        let rss = s.rss_bytes();
        assert!((rss as i64 - (64i64 << 20)).abs() < (1 << 20), "rss {rss}");
    }

    #[test]
    fn accesses_stay_in_bounds() {
        let mut s = store(KeyDist::Gaussian, 4096);
        let rss = s.rss_bytes();
        for _ in 0..100_000 {
            let a = s.next_access();
            assert!(a.addr < rss, "addr {} rss {rss}", a.addr);
        }
    }

    #[test]
    fn get_touches_index_then_value() {
        let mut s = store(KeyDist::Uniform, 1024);
        let first = s.next_access();
        let second = s.next_access();
        assert!((first.addr / PAGE_SIZE as u64) < s.index_pages);
        assert!(second.addr / PAGE_SIZE as u64 >= s.index_pages);
        assert!(!first.is_store, "index lookups are loads");
    }

    #[test]
    fn large_values_span_pages() {
        let mut s = store(KeyDist::Uniform, 4096);
        // Collect a few ops; 4 KB values unaligned to pages touch 2 pages.
        let mut multi = 0;
        for _ in 0..200 {
            let _idx = s.next_access();
            let mut pages = std::collections::HashSet::new();
            while let Some(a) = s.pending.pop() {
                pages.insert(a.addr / PAGE_SIZE as u64);
            }
            if pages.len() >= 2 {
                multi += 1;
            }
        }
        assert!(multi > 0, "some 4K values must straddle pages");
    }

    #[test]
    fn zipfian_kv_has_skewed_page_popularity() {
        let mut s = store(KeyDist::Zipfian, 1024);
        let mut counts = std::collections::HashMap::<u64, u64>::new();
        for _ in 0..200_000 {
            let a = s.next_access();
            let page = a.addr / PAGE_SIZE as u64;
            if page >= s.index_pages {
                *counts.entry(page).or_default() += 1;
            }
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = v.iter().take(10).sum();
        let total: u64 = v.iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.05,
            "top pages should absorb a visible share: {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn write_ratio_respected() {
        let mut s = store(KeyDist::Uniform, 1024);
        let mut stores = 0u64;
        let mut total = 0u64;
        for _ in 0..100_000 {
            let a = s.next_access();
            // Only count value accesses (index lookups are always loads).
            if a.addr / PAGE_SIZE as u64 >= s.index_pages {
                total += 1;
                if a.is_store {
                    stores += 1;
                }
            }
        }
        let ratio = stores as f64 / total as f64;
        assert!((ratio - 0.05).abs() < 0.02, "store ratio {ratio}");
    }

    #[test]
    fn page_classes_are_stable_and_mixed() {
        let s = store(KeyDist::Zipfian, 1024);
        let mut seen = std::collections::HashMap::<PageClass, u64>::new();
        for p in s.index_pages..(s.index_pages + 1000) {
            assert_eq!(s.page_class(p), s.page_class(p));
            *seen.entry(s.page_class(p)).or_default() += 1;
        }
        assert!(seen.len() >= 3, "value pages should mix classes: {seen:?}");
    }
}
