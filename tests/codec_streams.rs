//! Codec stream digests: proof that every codec's compressed output is byte
//! for byte what it was when the digests were recorded.
//!
//! Each algorithm compresses a fixed corpus: every `PageClass` at four seeds,
//! plus 16 `fill_page` pages from each of memcached-ycsb, memcached-memtier-4k
//! and xsbench. The digest is FNV-1a-64 over `(len ‖ bytes)` per page, where
//! `len` is the compressed length as a little-endian `u32` and a rejected
//! (incompressible) page contributes only `u32::MAX`. Every accepted stream
//! must also decode back to its page.
//!
//! A digest change means a codec's wire output changed, which moves every
//! pool byte, ratio and modeled metric downstream. A hot-loop rewrite must
//! leave these constants untouched.

use tierscape::compress::{Algorithm, CodecError};
use tierscape::workloads::{PageClass, Scale, WorkloadId};

const PAGE: usize = 4096;

/// Digests recorded from the reference encoders, in `Algorithm::ALL` order.
const GOLDEN: [(Algorithm, u64); 7] = [
    (Algorithm::Deflate, 0xc5d513a1712b193a),
    (Algorithm::Lzo, 0x87408dc06c290053),
    (Algorithm::LzoRle, 0x349bc90ab6c73c4b),
    (Algorithm::Lz4, 0xf676ed33021bbde7),
    (Algorithm::Zstd, 0xe41785fdf11f1f5e),
    (Algorithm::Sw842, 0x10287266ab22b30f),
    (Algorithm::Lz4hc, 0xd2f9c790fcb4fd70),
];

fn corpus() -> Vec<Vec<u8>> {
    let mut pages = Vec::new();
    for class in PageClass::ALL {
        for seed in 0..4u64 {
            let mut buf = vec![0u8; PAGE];
            class.fill(seed, 3 + seed * 17, &mut buf);
            pages.push(buf);
        }
    }
    for id in [
        WorkloadId::MemcachedYcsb,
        WorkloadId::MemcachedMemtier4k,
        WorkloadId::XsBench,
    ] {
        let w = id.build(Scale::TEST, 7);
        let total = w.total_pages();
        for i in 0..16u64 {
            let mut buf = vec![0u8; PAGE];
            w.fill_page(i * total / 16, &mut buf);
            pages.push(buf);
        }
    }
    pages
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(algo: Algorithm, pages: &[Vec<u8>]) -> u64 {
    let codec = algo.codec();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for page in pages {
        let mut out = Vec::new();
        match codec.compress(page, &mut out) {
            Ok(n) => {
                h = fnv1a(h, &(n as u32).to_le_bytes());
                h = fnv1a(h, &out[..n]);
                let mut back = Vec::new();
                codec
                    .decompress(&out[..n], &mut back)
                    .unwrap_or_else(|e| panic!("{algo}: own stream fails to decode: {e}"));
                assert_eq!(&back, page, "{algo}: round trip differs");
            }
            Err(CodecError::Incompressible { .. }) => h = fnv1a(h, &u32::MAX.to_le_bytes()),
            Err(e) => panic!("{algo}: unexpected error {e}"),
        }
    }
    h
}

#[test]
fn compressed_streams_match_recorded_digests() {
    let pages = corpus();
    assert_eq!(pages.len(), PageClass::ALL.len() * 4 + 3 * 16);
    let got: Vec<(Algorithm, u64)> = Algorithm::ALL
        .iter()
        .map(|&a| (a, digest(a, &pages)))
        .collect();
    for &(algo, have) in &got {
        println!("(Algorithm::{algo:?}, {have:#018x}),");
    }
    for (&(algo, want), &(_, have)) in GOLDEN.iter().zip(&got) {
        assert_eq!(have, want, "{algo}: compressed stream digest changed");
    }
}

/// Seeded xorshift64 so the mutations are the same on every run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Truncate, flip bits in, or overwrite bytes of a valid stream.
fn mutate(rng: &mut XorShift, stream: &[u8]) -> Vec<u8> {
    let mut m = stream.to_vec();
    match rng.below(3) {
        0 => m.truncate(rng.below(stream.len())),
        1 => {
            for _ in 0..1 + rng.below(3) {
                let bit = rng.below(m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
            }
        }
        _ => {
            for _ in 0..1 + rng.below(2) {
                let i = rng.below(m.len());
                m[i] = [0x00, 0xff, rng.next() as u8][rng.below(3)];
            }
        }
    }
    m
}

#[test]
fn malformed_streams_never_panic_or_overrun() {
    let pages = corpus();
    let mut rng = XorShift(0x5eed_c0de_2545_f491);
    let mut decoded = 0usize;
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        for page in &pages {
            let mut stream = Vec::new();
            if codec.compress(page, &mut stream).is_err() {
                continue;
            }
            for _ in 0..32 {
                let bad = mutate(&mut rng, &stream);
                let mut out = Vec::new();
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    codec.decompress(&bad, &mut out)
                }));
                let res = res.unwrap_or_else(|_| panic!("{algo}: decoder panicked on {bad:?}"));
                if let Ok(n) = res {
                    assert_eq!(n, out.len(), "{algo}: reported length");
                    decoded += 1;
                }
                if matches!(algo, Algorithm::Zstd | Algorithm::Deflate) {
                    let mut pos = 0;
                    let header = tierscape::compress::bitio::read_varint(&bad, &mut pos);
                    let limit = header.map_or(0, |h| h as usize);
                    assert!(
                        out.len() <= limit,
                        "{algo}: wrote {} > header {limit}",
                        out.len()
                    );
                }
            }
        }
    }
    // Mutations of literal bytes still decode; without any, the `Ok` checks
    // above would never run.
    assert!(decoded > 0);
}
