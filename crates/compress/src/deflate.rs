//! Deflate-style codec: LZ77 with lazy parsing + canonical Huffman coding.
//!
//! The symbol alphabets (literal/length with extra bits, distance with extra
//! bits) follow RFC 1951's tables, while the container is this crate's own:
//!
//! ```text
//! [varint original_len][litlen code lengths][dist code lengths][bitstream]
//! ```
//!
//! Among the codecs in this crate, deflate has the best compression ratio and
//! the highest compression and decompression cost — the "high TCO savings,
//! high latency" end of TierScape's tier spectrum.

use crate::bitio::{read_varint, write_varint, BitReader, BitWriter};
use crate::huffman::{code_lengths, encoded_bits, read_lengths, write_lengths, Decoder, Encoder};
use crate::lz77::{tokenize, Token};
use crate::{Algorithm, Codec, CodecError, Result};

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Literal/length alphabet size (256 literals + EOB + 29 length codes).
const LITLEN_SYMS: usize = 286;
/// Distance alphabet size.
const DIST_SYMS: usize = 30;
/// Max supported decompressed size (sanity bound, 64 MiB).
const MAX_OUT: u64 = 64 << 20;

/// `(base_length, extra_bits)` for length codes 257..=285.
const LEN_TABLE: [(u32, u32); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
const DIST_TABLE: [(u32, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Index into [`LEN_TABLE`] for each match length 0..=258 (entries below 3
/// are unused): the last entry whose base is <= the length.
const LEN_INDEX: [u8; 259] = {
    let mut t = [0u8; 259];
    let mut i = 0;
    while i < LEN_TABLE.len() {
        let mut len = LEN_TABLE[i].0 as usize;
        while len <= 258 {
            t[len] = i as u8;
            len += 1;
        }
        i += 1;
    }
    t
};

/// Distance symbol by `dist - 1` for distances up to 256, then by
/// `256 + ((dist - 1) >> 7)`: every base above 256 is 1 + a multiple of 128
/// (zlib's `_dist_code` layout).
const DIST_INDEX: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut i = 0;
    while i < DIST_TABLE.len() {
        let base = DIST_TABLE[i].0 as usize;
        let mut d = base;
        while d <= 256 {
            t[d - 1] = i as u8;
            d += 1;
        }
        if base > 256 {
            let mut j = (base - 1) >> 7;
            while j < 256 {
                t[256 + j] = i as u8;
                j += 1;
            }
        }
        i += 1;
    }
    t
};

/// Map a match length (3..=258) to `(symbol, extra_bits, extra_value)`.
#[inline]
fn length_code(len: u32) -> (usize, u32, u32) {
    debug_assert!((3..=258).contains(&len));
    let i = LEN_INDEX[len as usize] as usize;
    let (base, extra) = LEN_TABLE[i];
    (257 + i, extra, len - base)
}

/// Map a distance (1..=32768) to `(symbol, extra_bits, extra_value)`.
#[inline]
fn dist_code(dist: u32) -> (usize, u32, u32) {
    debug_assert!((1..=32768).contains(&dist));
    let d = dist as usize - 1;
    let i = DIST_INDEX[if d < 256 { d } else { 256 + (d >> 7) }] as usize;
    let (base, extra) = DIST_TABLE[i];
    (i, extra, dist - base)
}

/// Deflate always uses the lazy one-step-lookahead parse.
pub(crate) const LAZY: bool = true;

/// Deflate-style codec.
#[derive(Debug, Clone, Copy)]
pub struct Deflate {
    pub(crate) max_chain: usize,
}

impl Deflate {
    /// Create a deflate codec with default effort.
    pub fn new() -> Self {
        Deflate { max_chain: 64 }
    }

    /// Create with custom chain depth (higher = denser, slower).
    pub fn with_effort(max_chain: usize) -> Self {
        Deflate {
            max_chain: max_chain.max(1),
        }
    }
}

impl Default for Deflate {
    fn default() -> Self {
        Self::new()
    }
}

/// Entropy-encode a token stream with dynamic canonical Huffman tables
/// (shared by [`Deflate`] and [`crate::zstd_lite::ZstdLite`]).
///
/// The exact output size follows from the histograms and code lengths, so
/// an incompressible input is rejected before the bitstream is emitted.
///
/// # Errors
///
/// Returns [`CodecError::Incompressible`] when the encoded stream does not
/// shrink below `src_len`.
pub(crate) fn encode_tokens(tokens: &[Token], src_len: usize, dst: &mut Vec<u8>) -> Result<usize> {
    let before = dst.len();
    // Histogram both alphabets and count the raw extra bits.
    let mut lit_freq = [0u64; LITLEN_SYMS];
    let mut dist_freq = [0u64; DIST_SYMS];
    let mut extra_bits = 0u64;
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (sym, ebits, _) = length_code(len);
                let (dsym, debits, _) = dist_code(dist);
                lit_freq[sym] += 1;
                dist_freq[dsym] += 1;
                extra_bits += (ebits + debits) as u64;
            }
        }
    }
    lit_freq[EOB] += 1;

    let lit_lens = code_lengths(&lit_freq);
    let dist_lens = code_lengths(&dist_freq);
    write_varint(dst, src_len as u64);
    write_lengths(dst, &lit_lens);
    write_lengths(dst, &dist_lens);
    let bits =
        encoded_bits(&lit_freq, &lit_lens) + encoded_bits(&dist_freq, &dist_lens) + extra_bits;
    let written = dst.len() - before + bits.div_ceil(8) as usize;
    if written >= src_len && src_len > 0 {
        dst.truncate(before);
        return Err(CodecError::Incompressible { input_len: src_len });
    }

    let lit_enc = Encoder::from_lengths(&lit_lens);
    let dist_enc = Encoder::from_lengths(&dist_lens);
    dst.reserve(written - (dst.len() - before));
    let mut w = BitWriter::new(dst);
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_enc.encode(&mut w, b as usize),
            Token::Match { len, dist } => {
                let (sym, ebits, eval) = length_code(len);
                lit_enc.encode_with_extra(&mut w, sym, eval, ebits);
                let (dsym, debits, deval) = dist_code(dist);
                dist_enc.encode_with_extra(&mut w, dsym, deval, debits);
            }
        }
    }
    lit_enc.encode(&mut w, EOB);
    w.finish();
    debug_assert_eq!(dst.len() - before, written);
    Ok(written)
}

/// Decode a stream produced by [`encode_tokens`] (shared decoder).
///
/// The output is sized from the header up front and filled by index, so the
/// decoder never writes past the header's length: a stream that would
/// overrun it is rejected first. On error `dst` is left as it was.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on malformed input.
pub(crate) fn decode_stream(src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
    let mut pos = 0usize;
    let out_len = read_varint(src, &mut pos)?;
    if out_len > MAX_OUT {
        return Err(CodecError::OutputOverflow);
    }
    let lit_lens = read_lengths(src, &mut pos)?;
    let dist_lens = read_lengths(src, &mut pos)?;
    if lit_lens.len() != LITLEN_SYMS || dist_lens.len() != DIST_SYMS {
        return Err(CodecError::Corrupt("deflate: bad alphabet sizes"));
    }
    // Every symbol takes at least one bit and yields at most 258 bytes, so
    // a longer header is corrupt; checking first bounds the allocation.
    if out_len > (src.len() - pos) as u64 * 8 * 258 {
        return Err(CodecError::Corrupt(
            "deflate: output longer than stream allows",
        ));
    }
    let lit_dec = Decoder::from_lengths(&lit_lens)?;
    let dist_dec = Decoder::from_lengths(&dist_lens)?;
    let start = dst.len();
    dst.resize(start + out_len as usize, 0);
    let res = decode_symbols(
        &mut BitReader::new(&src[pos..]),
        &lit_dec,
        &dist_dec,
        &mut dst[start..],
    );
    if res.is_err() {
        dst.truncate(start);
    }
    res
}

/// The symbol loop of [`decode_stream`]: fill `out` exactly.
fn decode_symbols(
    r: &mut BitReader<'_>,
    lit_dec: &Decoder,
    dist_dec: &Decoder,
    out: &mut [u8],
) -> Result<usize> {
    let mut o = 0usize;
    loop {
        let sym = lit_dec.decode(r)? as usize;
        if sym < 256 {
            *out.get_mut(o)
                .ok_or(CodecError::Corrupt("deflate: output longer than header"))? = sym as u8;
            o += 1;
            continue;
        }
        if sym == EOB {
            break;
        }
        let (base, extra) = *LEN_TABLE
            .get(sym - 257)
            .ok_or(CodecError::Corrupt("deflate: bad length symbol"))?;
        let len = base as usize + r.read_bits(extra)? as usize;
        let dsym = dist_dec.decode(r)? as usize;
        let (dbase, dextra) = *DIST_TABLE
            .get(dsym)
            .ok_or(CodecError::Corrupt("deflate: bad distance symbol"))?;
        let dist = dbase as usize + r.read_bits(dextra)? as usize;
        if dist > o {
            return Err(CodecError::Corrupt("deflate: distance out of range"));
        }
        if len > out.len() - o {
            return Err(CodecError::Corrupt("deflate: output longer than header"));
        }
        if dist >= 8 && o + len + 8 <= out.len() {
            // 8-byte chunks may overshoot `len`; later output overwrites
            // the excess, and `dist >= 8` keeps every read behind the write.
            let mut i = o;
            while i < o + len {
                let chunk: [u8; 8] = out[i - dist..i - dist + 8].try_into().expect("8 bytes");
                out[i..i + 8].copy_from_slice(&chunk);
                i += 8;
            }
        } else if dist >= len {
            out.copy_within(o - dist..o - dist + len, o);
        } else {
            // Overlapping (run-style) copy: each byte reads one written
            // `dist` earlier in this same copy.
            for i in o..o + len {
                out[i] = out[i - dist];
            }
        }
        o += len;
    }
    if o != out.len() {
        return Err(CodecError::Corrupt("deflate: output length mismatch"));
    }
    Ok(o)
}

impl Codec for Deflate {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Deflate
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        let tokens = tokenize(src, 32 * 1024, self.max_chain, 258, LAZY);
        encode_tokens(&tokens, src.len(), dst)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        decode_stream(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3), (257, 0, 0));
        assert_eq!(length_code(10), (264, 0, 0));
        assert_eq!(length_code(11), (265, 1, 0));
        assert_eq!(length_code(12), (265, 1, 1));
        assert_eq!(length_code(258), (285, 0, 0));
        assert_eq!(length_code(257), (284, 5, 30));
    }

    #[test]
    fn dist_code_boundaries() {
        assert_eq!(dist_code(1), (0, 0, 0));
        assert_eq!(dist_code(4), (3, 0, 0));
        assert_eq!(dist_code(5), (4, 1, 0));
        assert_eq!(dist_code(32768), (29, 13, 8191));
    }

    #[test]
    fn lookup_tables_match_table_scan() {
        // The reference: the last table entry whose base is <= the value.
        let scan = |table: &[(u32, u32)], v: u32| {
            let i = table.iter().rposition(|&(base, _)| base <= v).unwrap();
            (i, table[i].1, v - table[i].0)
        };
        for len in 3..=258u32 {
            let (i, extra, val) = scan(&LEN_TABLE, len);
            assert_eq!(length_code(len), (257 + i, extra, val), "len {len}");
            assert!(val < 1 << extra || extra == 0 && val == 0);
        }
        for dist in 1..=32768u32 {
            assert_eq!(dist_code(dist), scan(&DIST_TABLE, dist), "dist {dist}");
        }
    }

    #[test]
    fn round_trip_text() {
        let data: Vec<u8> = b"It is a truth universally acknowledged, that a single man "
            .iter()
            .copied()
            .cycle()
            .take(16384)
            .collect();
        let (clen, out) = round_trip(&Deflate::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len() / 4, "clen={clen}");
    }

    #[test]
    fn beats_lz4_on_structured_data() {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(format!("<row id='{i}'><v>{}</v></row>", i % 13).as_bytes());
        }
        let mut d = Vec::new();
        let dlen = Deflate::new().compress(&data, &mut d).unwrap();
        let mut l = Vec::new();
        let llen = crate::lz4::Lz4::new().compress(&data, &mut l).unwrap();
        assert!(dlen < llen, "deflate {dlen} vs lz4 {llen}");
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8)
            .flat_map(|b| std::iter::repeat_n(b, 16))
            .collect();
        let (_, out) = round_trip(&Deflate::new(), &data).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn tiny_inputs() {
        for n in [0usize, 1, 2, 3, 5] {
            let data = vec![b'x'; n];
            match round_trip(&Deflate::new(), &data) {
                Ok((_, out)) => assert_eq!(out, data),
                Err(CodecError::Incompressible { .. }) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    #[test]
    fn corrupt_header_detected() {
        let data = vec![b'a'; 4096];
        let mut comp = Vec::new();
        Deflate::new().compress(&data, &mut comp).unwrap();
        let mut out = Vec::new();
        assert!(Deflate::new().decompress(&comp[..4], &mut out).is_err());
    }

    #[test]
    fn truncated_bitstream_detected() {
        let data: Vec<u8> = b"some moderately compressible content "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let mut comp = Vec::new();
        Deflate::new().compress(&data, &mut comp).unwrap();
        let mut out = Vec::new();
        let res = Deflate::new().decompress(&comp[..comp.len() - 8], &mut out);
        assert!(res.is_err());
    }
}
