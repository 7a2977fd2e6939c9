//! Figure 2: characterization of the 12 compressed tiers C1..C12.
//!
//! For each tier and each corpus (nci-like: highly compressible;
//! dickens-like: prose) this experiment *really* compresses pages through
//! the tier's codec and pool, then measures:
//!
//! * (a) access latency — measured wall-clock decompression of this crate's
//!   codecs plus the modeled pool-management and media terms, per 4 KiB page;
//! * (b) normalized memory TCO of the stored data vs uncompressed DRAM
//!   (compression ratio including pool overhead, times the medium's $/GB).
//!
//! Expected shape (paper Fig. 2): lz4 < lzo < deflate latency; zbud faster
//! but less dense than zsmalloc; DRAM-backed faster but costlier than
//! Optane-backed; deflate/zsmalloc/Optane (C12) the best TCO.

#![allow(
    clippy::disallowed_methods,
    reason = "Fig. 2(a) measures real decompression wall time by definition"
)]

use std::sync::Arc;
use std::time::Instant;
use ts_bench::{header, num, row, s, BenchScale};
use ts_mem::{Machine, MediaKind, PAGE_SIZE};
use ts_workloads::PageClass;
use ts_zswap::{CompressedTier, TierConfig, TierId};

/// Pages stored per (tier, corpus) measurement.
const PAGES: u64 = 512;

fn characterize(tier_cfg: &TierConfig, class: PageClass, seed: u64) -> (f64, f64, f64) {
    let machine = Arc::new(
        Machine::builder()
            .node(MediaKind::Dram, 64 << 20)
            .node(MediaKind::Nvmm, 64 << 20)
            .node(MediaKind::Cxl, 64 << 20)
            .build(),
    );
    let mut tier =
        CompressedTier::new(TierId(0), tier_cfg.clone(), machine).expect("all media present");
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut stored = Vec::new();
    let t0 = Instant::now();
    for p in 0..PAGES {
        class.fill(seed, p, &mut buf);
        // Rejected pages stay uncompressed (rare here).
        if let Ok(sp) = tier.store(&buf) {
            stored.push(sp);
        }
    }
    let compress_wall_ns = t0.elapsed().as_nanos() as f64 / PAGES as f64;

    // Effective ratio with pool overhead, before we drain the tier.
    let ratio = tier.effective_ratio();

    let t1 = Instant::now();
    for sp in stored.drain(..) {
        let page = tier.load(sp).expect("page is live");
        std::hint::black_box(page);
    }
    let decompress_wall_ns = t1.elapsed().as_nanos() as f64 / PAGES as f64;

    // Access latency = real codec+pool work measured above, plus the modeled
    // media penalty (slower medium stretches the data-dependent part) and
    // pool management overhead that a kernel fault path would add.
    let media_mult = ts_zswap::media_factor(tier_cfg.media);
    let access_ns = decompress_wall_ns * media_mult
        + tier_cfg.pool.mgmt_overhead_ns()
        + tier_cfg
            .media
            .default_spec()
            .stream_ns((ratio * PAGE_SIZE as f64) as u64);
    let _ = compress_wall_ns;

    // Normalized TCO: cost of storing the data in this tier vs in raw DRAM.
    let dram_cost = MediaKind::Dram.default_spec().cost_per_gb;
    let tco_norm = ratio * tier_cfg.media.default_spec().cost_per_gb / dram_cost;
    (access_ns, ratio, tco_norm)
}

fn main() {
    let bs = BenchScale::from_env();
    for (corpus, class) in [
        ("nci", PageClass::HighlyCompressible),
        ("dickens", PageClass::Text),
    ] {
        header(
            &format!("Figure 2: tier characterization on {corpus}-like data"),
            &["tier", "config", "access_us", "ratio", "tco_norm"],
        );
        for cfg in TierConfig::characterized_12() {
            let (access_ns, ratio, tco) = characterize(&cfg, class, bs.seed);
            row(&[
                ("tier", s(cfg.label.clone())),
                (
                    "config",
                    s(format!(
                        "{}/{}/{}",
                        cfg.pool.short_name(),
                        cfg.algorithm.name(),
                        cfg.media.short_name()
                    )),
                ),
                ("access_us", num(access_ns / 1000.0)),
                ("ratio", num(ratio)),
                ("tco_norm", num(tco)),
                ("corpus", s(corpus)),
            ]);
        }
    }
    println!("\nfor comparison, a DRAM page access is ~0.033 us");
}
