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

/// Every accepted stream of the corpus under each algorithm, with 32
/// seeded mutations of it: `f(algo, page, mutated)`. The seed runs on across
/// algorithms, so every caller sees the same mutations.
fn for_each_mutation(pages: &[Vec<u8>], mut f: impl FnMut(Algorithm, &[u8], &[u8])) {
    let mut rng = XorShift(0x5eed_c0de_2545_f491);
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        for page in pages {
            let mut stream = Vec::new();
            if codec.compress(page, &mut stream).is_err() {
                continue;
            }
            for _ in 0..32 {
                f(algo, page, &mutate(&mut rng, &stream));
            }
        }
    }
}

#[test]
fn malformed_streams_never_panic_or_overrun() {
    let pages = corpus();
    let mut decoded = 0usize;
    for_each_mutation(&pages, |algo, _, bad| {
        let mut out = Vec::new();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            algo.codec().decompress(bad, &mut out)
        }));
        let res = res.unwrap_or_else(|_| panic!("{algo}: decoder panicked on {bad:?}"));
        if let Ok(n) = res {
            assert_eq!(n, out.len(), "{algo}: reported length");
            decoded += 1;
        }
        if matches!(algo, Algorithm::Zstd | Algorithm::Deflate) {
            let mut pos = 0;
            let header = tierscape::compress::bitio::read_varint(bad, &mut pos);
            let limit = header.map_or(0, |h| h as usize);
            assert!(
                out.len() <= limit,
                "{algo}: wrote {} > header {limit}",
                out.len()
            );
        }
    });
    // Mutations of literal bytes still decode; without any, the `Ok` checks
    // above would never run.
    assert!(decoded > 0);
}

/// `(base, extra bits)` per symbol by RFC 1951 §3.2.5's rule: the first
/// `flat` symbols carry no extra bits, each later group of `group` symbols
/// one more than the group before, and each base follows the range the
/// previous symbol covers.
const fn rfc_table<const N: usize>(first: usize, flat: usize, group: usize) -> [(usize, u32); N] {
    let mut t = [(0, 0); N];
    let (mut i, mut base) = (0, first);
    while i < N {
        let extra = if i < flat {
            0
        } else {
            ((i - flat) / group + 1) as u32
        };
        t[i] = (base, extra);
        base += 1 << extra;
        i += 1;
    }
    t
}

/// The length symbols 257..=285; the last is 258 with no extra bits.
const REF_LEN: [(usize, u32); 29] = {
    let mut t = rfc_table(3, 8, 4);
    t[28] = (258, 0);
    t
};

/// The distance symbols 0..=29.
const REF_DIST: [(usize, u32); 30] = rfc_table(1, 4, 2);

/// LSB-first input, one bit at a time.
struct RefBits<'a> {
    src: &'a [u8],
    bit: usize,
}

impl RefBits<'_> {
    fn take(&mut self, n: u32) -> Option<usize> {
        let mut v = 0;
        for i in 0..n {
            let byte = *self.src.get(self.bit / 8)?;
            v |= ((byte >> (self.bit % 8)) as usize & 1) << i;
            self.bit += 1;
        }
        Some(v)
    }
}

/// A canonical code: how many codes each length has, and the symbols in
/// canonical order (by length, then symbol), decoded as in zlib's `puff`.
struct RefCode {
    count: [usize; 13],
    symbols: Vec<usize>,
}

impl RefCode {
    /// `None` for lengths past 12 bits or an over-subscribed code.
    fn new(lens: &[u32]) -> Option<RefCode> {
        if lens.iter().any(|&l| l > 12) {
            return None;
        }
        let mut count = [0usize; 13];
        for &l in lens {
            count[l as usize] += 1;
        }
        // Codes left unused after each length; negative = over-subscribed.
        let mut left = 1isize;
        for &c in &count[1..] {
            left = left * 2 - c as isize;
            if left < 0 {
                return None;
            }
        }
        let mut symbols: Vec<usize> = (0..lens.len()).filter(|&s| lens[s] > 0).collect();
        symbols.sort_by_key(|&s| lens[s]);
        Some(RefCode { count, symbols })
    }

    fn decode(&self, bits: &mut RefBits<'_>) -> Option<usize> {
        // `code` is the bits read so far, most significant first; the codes
        // of length `len` are `first..first + count[len]`.
        let (mut code, mut first, mut index) = (0, 0, 0);
        for len in 1..=12 {
            code |= bits.take(1)?;
            let count = self.count[len];
            if code < first + count {
                return Some(self.symbols[index + code - first]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        None
    }
}

/// Bit-at-a-time reference for the zstd/deflate decoder: no tables, no
/// fast loop, one code bit per step. `None` where the stream is malformed.
fn reference_decode(src: &[u8]) -> Option<Vec<u8>> {
    use tierscape::compress::{bitio::read_varint, huffman::read_lengths};
    let mut pos = 0;
    let out_len = read_varint(src, &mut pos).ok()? as usize;
    let lit = read_lengths(src, &mut pos).ok()?;
    let dist = read_lengths(src, &mut pos).ok()?;
    if out_len > 64 << 20 || lit.len() != 286 || dist.len() != 30 {
        return None;
    }
    let (lit, dist) = (RefCode::new(&lit)?, RefCode::new(&dist)?);
    let mut bits = RefBits {
        src: &src[pos..],
        bit: 0,
    };
    let mut out = Vec::new();
    loop {
        match lit.decode(&mut bits)? {
            sym @ 0..=255 => out.push(sym as u8),
            256 => break,
            sym => {
                let (base, extra) = REF_LEN[sym - 257];
                let len = base + bits.take(extra)?;
                let (dbase, dextra) = REF_DIST[dist.decode(&mut bits)?];
                let d = dbase + bits.take(dextra)?;
                if d > out.len() || out.len() + len > out_len {
                    return None;
                }
                for _ in 0..len {
                    out.push(out[out.len() - d]);
                }
            }
        }
        if out.len() > out_len {
            return None;
        }
    }
    (out.len() == out_len).then_some(out)
}

/// Assert `algo`'s decoder and the reference agree on `stream`: the same
/// bytes, or an error from both. Returns the decoded bytes.
fn agree(algo: Algorithm, stream: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let got = algo.codec().decompress(stream, &mut out).ok().map(|_| out);
    let want = reference_decode(stream);
    assert_eq!(
        got, want,
        "{algo}: decoder and reference disagree on {stream:?}"
    );
    got
}

/// One token of a hand-built stream.
#[derive(Clone, Copy)]
enum Tok {
    Lit(u8),
    /// `(length, distance)`.
    Match(usize, usize),
}

/// Encode `toks` in the zstd/deflate container with a header claiming
/// `out_len` bytes; also returns what the tokens expand to.
fn hand_built(toks: &[Tok], out_len: usize) -> (Vec<u8>, Vec<u8>) {
    use tierscape::compress::bitio::{write_varint, BitWriter};
    use tierscape::compress::huffman::{code_lengths, write_lengths, Encoder};
    let sym_of = |table: &[(usize, u32)], v: usize| {
        let i = table
            .iter()
            .rposition(|&(base, _)| base <= v)
            .expect("in range");
        (i, (v - table[i].0) as u32, table[i].1)
    };
    let (mut lit_freq, mut dist_freq) = (vec![0u64; 286], vec![0u64; 30]);
    let mut expanded = Vec::new();
    for &t in toks {
        match t {
            Tok::Lit(b) => {
                lit_freq[b as usize] += 1;
                expanded.push(b);
            }
            Tok::Match(len, d) => {
                lit_freq[257 + sym_of(&REF_LEN, len).0] += 1;
                dist_freq[sym_of(&REF_DIST, d).0] += 1;
                for _ in 0..len {
                    let b = expanded.len().checked_sub(d).map_or(0, |i| expanded[i]);
                    expanded.push(b);
                }
            }
        }
    }
    lit_freq[256] += 1;
    let (lit_lens, dist_lens) = (code_lengths(&lit_freq), code_lengths(&dist_freq));
    let mut stream = Vec::new();
    write_varint(&mut stream, out_len as u64);
    write_lengths(&mut stream, &lit_lens);
    write_lengths(&mut stream, &dist_lens);
    let (lit_enc, dist_enc) = (
        Encoder::from_lengths(&lit_lens),
        Encoder::from_lengths(&dist_lens),
    );
    let mut w = BitWriter::new(&mut stream);
    for &t in toks {
        match t {
            Tok::Lit(b) => lit_enc.encode(&mut w, b as usize),
            Tok::Match(len, d) => {
                let (i, v, n) = sym_of(&REF_LEN, len);
                lit_enc.encode_with_extra(&mut w, 257 + i, v, n);
                let (i, v, n) = sym_of(&REF_DIST, d);
                dist_enc.encode_with_extra(&mut w, i, v, n);
            }
        }
    }
    lit_enc.encode(&mut w, 256);
    w.finish();
    (stream, expanded)
}

/// Hand-built token lists at the decoder's edges: bitstreams under 8
/// bytes, matches that start or end around the fast loop's 266-byte output
/// margin, overlapping distances 1..=7 and 258-byte matches.
fn edge_token_lists() -> Vec<Vec<Tok>> {
    let mut rng = XorShift(0xed6e_5eed_0000_0001);
    let mut lits = |n: usize| -> Vec<Tok> { (0..n).map(|_| Tok::Lit(rng.next() as u8)).collect() };
    let mut lists = vec![
        vec![],
        vec![Tok::Lit(b'a')],
        vec![Tok::Lit(b'a'), Tok::Match(3, 1)],
        vec![Tok::Lit(0), Tok::Match(258, 1), Tok::Match(258, 1)],
    ];
    for d in 1..=7 {
        for len in [3, 4, 7, 8, 9, 15, 16, 17, 258] {
            // Early in a long stream (fast loop), then again in its tail.
            let mut t = lits(d + 40);
            t.push(Tok::Match(len, d));
            t.extend(lits(300));
            t.push(Tok::Match(len, d));
            t.extend(lits(len % 5));
            lists.push(t);
        }
    }
    for tail in 0..12 {
        for (len, d) in [(258, 1), (258, 8), (258, 300), (200, 3), (10, 9)] {
            // The match ends `tail` bytes before the end, after one or two
            // literals, so its start sweeps across the 266-byte margin.
            for lead in 1..=2 {
                let mut t = lits(400);
                t.extend(lits(lead));
                t.push(Tok::Match(len, d));
                t.extend(lits(tail));
                lists.push(t);
            }
        }
    }
    let mut long = lits(20);
    for k in 0..40 {
        long.push(Tok::Match(258, 1 + k % 20));
        long.extend(lits(k % 3));
    }
    lists.push(long);
    lists
}

#[test]
fn decoder_matches_bit_at_a_time_reference() {
    let pages = corpus();
    for algo in [Algorithm::Zstd, Algorithm::Deflate] {
        for page in &pages {
            let mut stream = Vec::new();
            if algo.codec().compress(page, &mut stream).is_ok() {
                assert_eq!(
                    agree(algo, &stream).as_ref(),
                    Some(page),
                    "{algo}: corpus page"
                );
            }
        }
    }
    let mut mutated = 0usize;
    for_each_mutation(&pages, |algo, _, bad| {
        if matches!(algo, Algorithm::Zstd | Algorithm::Deflate) {
            agree(algo, bad);
            mutated += 1;
        }
    });
    assert!(mutated > 0);
    let mut rng = XorShift(0xb17f_11b5_0000_0002);
    for toks in edge_token_lists() {
        let n = hand_built(&toks, 0).1.len();
        let (stream, expanded) = hand_built(&toks, n);
        assert_eq!(
            agree(Algorithm::Zstd, &stream),
            Some(expanded),
            "edge stream {stream:?}"
        );
        // A header one byte short or long, truncations and bit flips.
        for wrong in [n.checked_sub(1), Some(n + 1)].into_iter().flatten() {
            assert_eq!(agree(Algorithm::Zstd, &hand_built(&toks, wrong).0), None);
        }
        for cut in (0..stream.len()).filter(|&c| c < 16 || c % 13 == 0 || c + 16 > stream.len()) {
            agree(Algorithm::Zstd, &stream[..cut]);
        }
        for _ in 0..16 {
            let mut bad = stream.clone();
            let bit = rng.below(bad.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
            agree(Algorithm::Deflate, &bad);
        }
    }
    // A match reaching before the start of the output.
    let (stream, _) = hand_built(&[Tok::Lit(1), Tok::Match(5, 2)], 6);
    assert_eq!(agree(Algorithm::Zstd, &stream), None);
}
