//! Isolated codec, pool and page-fill rows.
//!
//! A fixed sample of the workload's own pages, drawn from the run's seed,
//! is regenerated with `Workload::fill_page` (harness time: the simulator
//! synthesizes page contents, a real system would not), compressed and
//! decompressed by each codec, and stored into and loaded from each pool.
//! Every round trip is checked byte for byte. The per-operation times give
//! an outside-in attribution of `engine.us_per_page_moved`.

use crate::spec::{ISOLATED_ALGOS, ISOLATED_POOLS};
use crate::Metric;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use ts_compress::{Algorithm, CodecError};
use ts_mem::{Machine, MediaKind, NodeId, PAGE_SIZE};
use ts_workloads::Workload;
use ts_zpool::PoolKind;

/// Pages in the replayed sample.
pub const SAMPLE_PAGES: usize = 96;

#[derive(Debug, Default, Clone, Copy)]
struct CodecRow {
    compress_ns: u64,
    decompress_ns: u64,
    pages: u64,
    accepted: u64,
    raw_bytes: u64,
    comp_bytes: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct PoolRow {
    store_ns: u64,
    load_ns: u64,
    ops: u64,
}

/// Result of the isolated replay.
#[derive(Debug, Default)]
pub struct Isolated {
    fill_ns: u64,
    fills: u64,
    codecs: BTreeMap<Algorithm, CodecRow>,
    pools: BTreeMap<PoolKind, PoolRow>,
    /// Round trips (codec and pool) attempted.
    pub attempted: u64,
    /// Round trips that failed or returned different bytes.
    pub failed: u64,
}

/// SplitMix64: a seeded, dependency-free page sampler.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replay `SAMPLE_PAGES` seeded pages of `workload` through every codec of
/// [`ISOLATED_ALGOS`] and every pool of [`ISOLATED_POOLS`].
pub fn replay(workload: &dyn Workload, seed: u64) -> Isolated {
    let mut out = Isolated::default();
    let mut state = seed ^ 0x5eed_1501_a7ed_0001;
    let total = workload.total_pages().max(1);
    let mut pages = Vec::with_capacity(SAMPLE_PAGES);
    for _ in 0..SAMPLE_PAGES {
        let page = splitmix(&mut state) % total;
        let mut buf = vec![0u8; PAGE_SIZE];
        let t = Instant::now();
        workload.fill_page(page, &mut buf);
        out.fill_ns += elapsed_ns(t);
        out.fills += 1;
        pages.push(buf);
    }

    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for algo in ISOLATED_ALGOS {
        let codec = algo.codec();
        let mut row = CodecRow::default();
        let mut comp = Vec::with_capacity(PAGE_SIZE * 2);
        let mut plain = Vec::with_capacity(PAGE_SIZE);
        for page in &pages {
            out.attempted += 1;
            row.pages += 1;
            comp.clear();
            let t = Instant::now();
            let res = codec.compress(page, &mut comp);
            row.compress_ns += elapsed_ns(t);
            match res {
                Ok(len) => {
                    row.accepted += 1;
                    row.raw_bytes += page.len() as u64;
                    row.comp_bytes += len as u64;
                }
                // zswap rejects pages that do not compress: a modeled
                // outcome, not a failure.
                Err(CodecError::Incompressible { .. }) => continue,
                Err(_) => {
                    out.failed += 1;
                    continue;
                }
            }
            plain.clear();
            let t = Instant::now();
            let res = codec.decompress(&comp, &mut plain);
            row.decompress_ns += elapsed_ns(t);
            if res.is_err() || plain != *page {
                out.failed += 1;
            }
            payloads.push(comp.clone());
        }
        out.codecs.insert(algo, row);
    }

    for kind in ISOLATED_POOLS {
        let machine = Arc::new(Machine::builder().node(MediaKind::Dram, 64 << 20).build());
        let mut pool = kind.create(machine, NodeId(0));
        let mut row = PoolRow::default();
        let mut handles = Vec::with_capacity(payloads.len());
        for p in &payloads {
            out.attempted += 1;
            let t = Instant::now();
            let res = pool.store(p);
            row.store_ns += elapsed_ns(t);
            match res {
                Ok(h) => handles.push(Some(h)),
                Err(_) => {
                    out.failed += 1;
                    handles.push(None);
                }
            }
        }
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        for (p, h) in payloads.iter().zip(&handles) {
            let Some(h) = *h else { continue };
            buf.clear();
            let t = Instant::now();
            let res = pool.load(h, &mut buf);
            row.load_ns += elapsed_ns(t);
            row.ops += 1;
            if res.is_err() || buf != *p || pool.remove(h).is_err() {
                out.failed += 1;
            }
        }
        out.pools.insert(kind, row);
    }
    out
}

fn per(ns: u64, n: u64, scale: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 * scale / n as f64
    }
}

impl Isolated {
    /// Mean µs to synthesize one page (harness).
    pub fn fill_us(&self) -> f64 {
        per(self.fill_ns, self.fills, 1e-3)
    }

    fn compress_us(&self, algo: Algorithm) -> f64 {
        self.codecs
            .get(&algo)
            .map_or(0.0, |r| per(r.compress_ns, r.pages, 1e-3))
    }

    fn store_us(&self, kind: PoolKind) -> f64 {
        self.pools
            .get(&kind)
            .map_or(0.0, |r| per(r.store_ns, r.ops, 1e-3))
    }

    /// Isolated cost of one page's store path into tiers `(algo, pool,
    /// stores)`: fill + compress + pool store, weighted by each tier's
    /// store count (0 when no tier stored anything).
    pub fn store_path_us(&self, tiers: &[(Algorithm, PoolKind, u64)]) -> f64 {
        let stores: u64 = tiers.iter().map(|t| t.2).sum();
        let weighted: f64 = tiers
            .iter()
            .map(|&(a, p, n)| n as f64 * (self.fill_us() + self.compress_us(a) + self.store_us(p)))
            .sum();
        if stores == 0 {
            0.0
        } else {
            weighted / stores as f64
        }
    }

    /// The isolated rows as per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = vec![Metric::new("workloads.fill_page_us", self.fill_us(), "us")];
        for (algo, r) in &self.codecs {
            let name = algo.name();
            m.extend([
                Metric::new(
                    format!("compress.{name}.compress_us"),
                    per(r.compress_ns, r.pages, 1e-3),
                    "us",
                ),
                Metric::new(
                    format!("compress.{name}.decompress_us"),
                    per(r.decompress_ns, r.accepted, 1e-3),
                    "us",
                ),
                Metric::new(
                    format!("compress.{name}.ratio"),
                    if r.comp_bytes == 0 {
                        0.0
                    } else {
                        r.raw_bytes as f64 / r.comp_bytes as f64
                    },
                    "x",
                ),
            ]);
        }
        for (kind, r) in &self.pools {
            let name = kind.name();
            m.extend([
                Metric::new(
                    format!("zpool.{name}.store_ns"),
                    per(r.store_ns, r.ops, 1.0),
                    "ns",
                ),
                Metric::new(
                    format!("zpool.{name}.load_ns"),
                    per(r.load_ns, r.ops, 1.0),
                    "ns",
                ),
            ]);
        }
        m
    }
}
