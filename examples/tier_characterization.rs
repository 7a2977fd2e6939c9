//! Characterize compressed-tier building blocks on your own data classes:
//! real compression ratios and measured codec speed for every algorithm and
//! pool (the §5 experiment in miniature).
//!
//! ```sh
//! cargo run --release --example tier_characterization
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "this example measures real codec speed on the host by definition"
)]

use std::sync::Arc;
use std::time::Instant;
use tierscape::compress::Algorithm;
use tierscape::mem::{Machine, MediaKind, NodeId, PAGE_SIZE};
use tierscape::workloads::PageClass;
use tierscape::zpool::PoolKind;

const PAGES: u64 = 256;

fn main() {
    // Codec grid: measured ratio and wall-clock speed per content class.
    println!("codec ratios (compressed/original, 4 KiB pages; 1.0 = rejected)\n");
    print!("{:<10}", "codec");
    for class in PageClass::ALL {
        print!("{:>16}", format!("{class:?}"));
    }
    println!();
    let mut buf = vec![0u8; PAGE_SIZE];
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        print!("{:<10}", algo.name());
        for class in PageClass::ALL {
            let mut total = 0usize;
            let mut raw = 0usize;
            for p in 0..PAGES {
                class.fill(11, p, &mut buf);
                let mut out = Vec::with_capacity(PAGE_SIZE);
                match codec.compress(&buf, &mut out) {
                    Ok(n) => total += n,
                    Err(_) => total += PAGE_SIZE,
                }
                raw += PAGE_SIZE;
            }
            print!("{:>16.3}", total as f64 / raw as f64);
        }
        println!();
    }

    // Codec speed on text pages.
    println!("\ncodec speed on text pages (wall-clock us per 4 KiB page)\n");
    println!("{:<10} {:>12} {:>12}", "codec", "compress", "decompress");
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        let mut pages = Vec::new();
        for p in 0..PAGES {
            let mut b = vec![0u8; PAGE_SIZE];
            PageClass::Text.fill(11, p, &mut b);
            pages.push(b);
        }
        let t0 = Instant::now();
        let compressed: Vec<Vec<u8>> = pages
            .iter()
            .filter_map(|p| {
                let mut out = Vec::with_capacity(PAGE_SIZE);
                codec.compress(p, &mut out).ok().map(|_| out)
            })
            .collect();
        let c_us = t0.elapsed().as_micros() as f64 / PAGES as f64;
        let t1 = Instant::now();
        for comp in &compressed {
            let mut out = Vec::with_capacity(PAGE_SIZE);
            codec.decompress(comp, &mut out).expect("valid stream");
        }
        let d_us = t1.elapsed().as_micros() as f64 / compressed.len().max(1) as f64;
        println!("{:<10} {:>12.2} {:>12.2}", algo.name(), c_us, d_us);
    }

    // Pool packing density for a typical compressed-object size.
    println!("\npool packing density (1.2 KiB objects)\n");
    let machine = Arc::new(Machine::builder().node(MediaKind::Dram, 64 << 20).build());
    for kind in PoolKind::ALL {
        let mut pool = kind.create(machine.clone(), NodeId(0));
        for _ in 0..500 {
            pool.store(&vec![0xAAu8; 1229]).expect("capacity available");
        }
        let s = pool.stats();
        println!(
            "{:<10} density {:.3}  ({} objects in {} backing pages)",
            kind.name(),
            s.density(),
            s.objects,
            s.pool_pages
        );
    }
    println!("\nzbud tops out at 0.5, z3fold at ~0.66, zsmalloc approaches the raw ratio.");
}
