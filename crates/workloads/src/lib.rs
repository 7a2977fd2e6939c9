#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![allow(
    clippy::disallowed_types,
    reason = "hash maps here only count or deduplicate in tests; generators draw from seeded RNGs, never from hash order"
)]

//! # ts-workloads — workload generators and data synthesizers
//!
//! Reproduces the access patterns and data compressibility of the paper's
//! benchmark suite (Table 2) as deterministic, scalable generators:
//!
//! | Paper workload | Here | RSS (paper) |
//! |---|---|---|
//! | Memcached + memtier (1 K / 4 K, Gaussian) | [`kv::KvStore`] | 42 / 58 GB |
//! | Memcached + YCSB workloadc (Zipfian) | [`kv::KvStore`] | 42 GB |
//! | Redis + YCSB | [`kv::KvStore`] | 90 GB |
//! | Ligra BFS over rMat | [`graph::GraphWorkload`] | 30 GB |
//! | Ligra PageRank over rMat | [`graph::GraphWorkload`] | 30 GB |
//! | XSBench XL | [`hpc::XsBench`] | 119 GB |
//! | GraphSAGE / ogbn-products | [`hpc::GraphSage`] | 40 GB |
//!
//! Each workload emits a page-granular [`Access`] stream and describes every
//! page's content ([`corpus::PageClass`]) so the simulator can regenerate
//! real bytes on demand (`Real` fidelity) or use calibrated ratios
//! (`Modeled` fidelity). A global [`Scale`] shrinks RSS while preserving the
//! paper's relative workload sizes.

pub mod colocate;
pub mod corpus;
pub mod dist;
pub mod graph;
pub mod hpc;
pub mod kv;
pub mod trace;

pub use corpus::PageClass;

/// Page size assumed by the address-space layouts.
pub const PAGE_SIZE: usize = ts_mem::PAGE_SIZE;

/// One memory access event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual byte address.
    pub addr: u64,
    /// True for stores, false for loads.
    pub is_store: bool,
}

/// A workload: an address space with content plus an access stream.
///
/// `Sync` is required so the parallel migration engine's workers can read
/// page contents (`fill_page`) from a shared `&dyn Workload` concurrently.
pub trait Workload: Send + Sync {
    /// Short identifier (e.g. "memcached-ycsb").
    fn name(&self) -> &str;

    /// One-line description (Table 2 style).
    fn description(&self) -> &str;

    /// Total resident set size in bytes.
    fn rss_bytes(&self) -> u64;

    /// Content class of page `page` (index within the RSS).
    fn page_class(&self, page: u64) -> PageClass;

    /// Seed the content generators use for this workload.
    fn content_seed(&self) -> u64;

    /// Produce the next access event.
    fn next_access(&mut self) -> Access;

    /// Regenerate the bytes of page `page` into `buf`.
    ///
    /// Deterministic in `(content_seed, page)`, so pages need not be stored
    /// while resident — only compressed tiers hold real bytes.
    fn fill_page(&self, page: u64, buf: &mut [u8]) {
        self.page_class(page).fill(self.content_seed(), page, buf);
    }

    /// Total pages in the RSS.
    fn total_pages(&self) -> u64 {
        self.rss_bytes().div_ceil(PAGE_SIZE as u64)
    }
}

/// Scale factor applied to the paper's RSS figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Tiny scale for unit tests (GBs become ~single MBs).
    pub const TEST: Scale = Scale(1.0 / 4096.0);
    /// Default bench scale (GBs become ~tens of MBs).
    pub const BENCH: Scale = Scale(1.0 / 1024.0);

    /// Scaled bytes for a paper RSS given in GiB.
    pub fn of_gb(self, gb: f64) -> u64 {
        ((gb * self.0) * (1u64 << 30) as f64) as u64
    }
}

/// Identifier of a Table 2 workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Memcached + memtier, 1 KB values, Gaussian keys.
    MemcachedMemtier1k,
    /// Memcached + memtier, 4 KB values, Gaussian keys.
    MemcachedMemtier4k,
    /// Memcached + YCSB workloadc, Zipfian reads.
    MemcachedYcsb,
    /// Redis + YCSB.
    RedisYcsb,
    /// Ligra BFS over rMat.
    Bfs,
    /// Ligra PageRank over rMat.
    PageRank,
    /// XSBench XL.
    XsBench,
    /// GraphSAGE over ogbn-products-like data.
    GraphSage,
}

impl WorkloadId {
    /// The full Table 2 set.
    pub const ALL: [WorkloadId; 8] = [
        WorkloadId::MemcachedMemtier1k,
        WorkloadId::MemcachedMemtier4k,
        WorkloadId::MemcachedYcsb,
        WorkloadId::RedisYcsb,
        WorkloadId::Bfs,
        WorkloadId::PageRank,
        WorkloadId::XsBench,
        WorkloadId::GraphSage,
    ];

    /// The paper's RSS for this workload in GiB (Table 2).
    pub fn paper_rss_gb(self) -> f64 {
        match self {
            WorkloadId::MemcachedMemtier1k => 42.0,
            WorkloadId::MemcachedMemtier4k => 58.0,
            WorkloadId::MemcachedYcsb => 42.0,
            WorkloadId::RedisYcsb => 90.0,
            WorkloadId::Bfs => 30.0,
            WorkloadId::PageRank => 30.0,
            WorkloadId::XsBench => 119.0,
            WorkloadId::GraphSage => 40.0,
        }
    }

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::MemcachedMemtier1k => "memcached-memtier-1k",
            WorkloadId::MemcachedMemtier4k => "memcached-memtier-4k",
            WorkloadId::MemcachedYcsb => "memcached-ycsb",
            WorkloadId::RedisYcsb => "redis-ycsb",
            WorkloadId::Bfs => "bfs",
            WorkloadId::PageRank => "pagerank",
            WorkloadId::XsBench => "xsbench",
            WorkloadId::GraphSage => "graphsage",
        }
    }

    /// Table 2 description.
    pub fn description(self) -> &'static str {
        match self {
            WorkloadId::MemcachedMemtier1k
            | WorkloadId::MemcachedMemtier4k
            | WorkloadId::MemcachedYcsb => "A commercial in-memory object caching system",
            WorkloadId::RedisYcsb => "A commercial in-memory key-value store",
            WorkloadId::Bfs => "Traverse graphs generated by web crawlers (breadth-first search)",
            WorkloadId::PageRank => "Assign ranks to pages based on popularity",
            WorkloadId::XsBench => "Key computational kernel of Monte Carlo neutron transport",
            WorkloadId::GraphSage => "Framework for inductive learning on large graphs",
        }
    }

    /// Build the workload at the given scale.
    pub fn build(self, scale: Scale, seed: u64) -> Box<dyn Workload> {
        let rss = scale.of_gb(self.paper_rss_gb());
        match self {
            WorkloadId::MemcachedMemtier1k => Box::new(kv::KvStore::new(
                self.name(),
                rss,
                1024,
                kv::KeyDist::Gaussian,
                0.95,
                seed,
            )),
            WorkloadId::MemcachedMemtier4k => Box::new(kv::KvStore::new(
                self.name(),
                rss,
                4096,
                kv::KeyDist::Gaussian,
                0.95,
                seed,
            )),
            WorkloadId::MemcachedYcsb => Box::new(kv::KvStore::new(
                self.name(),
                rss,
                1024,
                kv::KeyDist::Zipfian,
                1.0,
                seed,
            )),
            WorkloadId::RedisYcsb => Box::new(kv::KvStore::new(
                self.name(),
                rss,
                1024,
                kv::KeyDist::Zipfian,
                0.95,
                seed,
            )),
            WorkloadId::Bfs => Box::new(graph::GraphWorkload::new(
                graph::GraphAlgo::Bfs,
                rss_to_scale(rss),
                16,
                seed,
            )),
            WorkloadId::PageRank => Box::new(graph::GraphWorkload::new(
                graph::GraphAlgo::PageRank,
                rss_to_scale(rss),
                16,
                seed,
            )),
            WorkloadId::XsBench => Box::new(hpc::XsBench::new(rss, seed)),
            WorkloadId::GraphSage => {
                Box::new(hpc::GraphSage::new(rss, rss_to_scale(rss).min(14), seed))
            }
        }
    }
}

/// Pick an rMat scale whose CSR roughly fills `rss` bytes at edge factor 16.
fn rss_to_scale(rss: u64) -> u32 {
    // Bytes per vertex ~ 8 (offset) + 16*4 (edges) + 16 (state) = 88.
    let n = (rss / 88).max(256);
    (63 - n.leading_zeros() as u64).clamp(8, 20) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_every_workload() {
        for id in WorkloadId::ALL {
            let mut w = id.build(Scale::TEST, 42);
            assert!(w.rss_bytes() > 0, "{}", id.name());
            let rss = w.rss_bytes();
            for _ in 0..5000 {
                let a = w.next_access();
                assert!(a.addr < rss, "{}: {a:?}", id.name());
            }
        }
    }

    #[test]
    fn scale_preserves_relative_rss() {
        let s = Scale::TEST;
        let m = WorkloadId::MemcachedYcsb.build(s, 1).rss_bytes() as f64;
        let x = WorkloadId::XsBench.build(s, 1).rss_bytes() as f64;
        // Paper ratio 119/42 = 2.83.
        let ratio = x / m;
        assert!((ratio - 119.0 / 42.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> =
            WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), WorkloadId::ALL.len());
    }

    #[test]
    fn fill_page_deterministic_across_calls() {
        let w = WorkloadId::MemcachedYcsb.build(Scale::TEST, 7);
        let mut a = vec![0u8; PAGE_SIZE];
        let mut b = vec![0u8; PAGE_SIZE];
        w.fill_page(10, &mut a);
        w.fill_page(10, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn total_pages_consistent() {
        let w = WorkloadId::Bfs.build(Scale::TEST, 7);
        assert_eq!(w.total_pages(), w.rss_bytes().div_ceil(PAGE_SIZE as u64));
    }
}
