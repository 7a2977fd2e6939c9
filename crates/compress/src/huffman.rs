//! Canonical, length-limited Huffman coding.
//!
//! Used by the [`crate::deflate`] and [`crate::zstd_lite`] codecs. Code
//! lengths are limited to [`MAX_CODE_LEN`] bits so the decoder can use a
//! single-level lookup table that is cheap to rebuild per block.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, Result};

/// Maximum code length in bits. 12 bits keeps the decode table at 4096
/// entries, small enough to rebuild for every compressed page.
pub const MAX_CODE_LEN: u32 = 12;

/// Compute length-limited Huffman code lengths for `freqs`.
///
/// Returns one length per symbol; zero for symbols with zero frequency.
/// If only one symbol occurs it is assigned length 1 (a decodable degenerate
/// tree). Lengths never exceed [`MAX_CODE_LEN`].
///
/// Two-queue construction: leaves sorted by `(freq, symbol)` and a FIFO of
/// internal nodes, whose weights come out non-decreasing. Each merge takes
/// the two lightest fronts; on equal weight a leaf beats an internal node
/// and an older internal node beats a newer one. That is a min-heap's
/// `(freq, node id)` order with leaves numbered by symbol and internal nodes
/// numbered after them in creation order, so the tree is the heap's.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let mut lens = vec![0u32; freqs.len()];
    let mut leaves: Vec<(u64, usize)> = freqs
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f > 0)
        .map(|(sym, &f)| (f, sym))
        .collect();
    match leaves.len() {
        0 => return lens,
        1 => {
            lens[leaves[0].1] = 1;
            return lens;
        }
        _ => {}
    }
    leaves.sort_unstable();

    // Node k < m is the k-th sorted leaf; node m + j is the j-th merge.
    let m = leaves.len();
    let mut weight: Vec<u64> = Vec::with_capacity(m - 1);
    let mut parent = vec![0usize; 2 * m - 1];
    let (mut next_leaf, mut next_internal) = (0usize, 0usize);
    for node in m..2 * m - 1 {
        let mut sum = 0u64;
        for _ in 0..2 {
            let take_leaf = next_leaf < m
                && (next_internal == weight.len() || leaves[next_leaf].0 <= weight[next_internal]);
            if take_leaf {
                sum = sum.saturating_add(leaves[next_leaf].0);
                parent[next_leaf] = node;
                next_leaf += 1;
            } else {
                sum = sum.saturating_add(weight[next_internal]);
                parent[m + next_internal] = node;
                next_internal += 1;
            }
        }
        weight.push(sum);
    }

    // Parents are created after their children, so one reverse pass from
    // the root (the last node, depth 0) assigns every depth.
    let mut depth = vec![0u32; 2 * m - 1];
    for k in (0..2 * m - 2).rev() {
        depth[k] = depth[parent[k]] + 1;
    }
    for (k, &(_, sym)) in leaves.iter().enumerate() {
        lens[sym] = depth[k];
    }

    limit_lengths(&mut lens, MAX_CODE_LEN);
    lens
}

/// Clamp code lengths to `max_len`, restoring Kraft validity.
///
/// Uses the classic "overflowed leaves are pushed down, then slack is
/// redistributed" adjustment (as in zlib / kernel lib/zlib_deflate).
fn limit_lengths(lens: &mut [u32], max_len: u32) {
    let mut kraft: u64 = 0;
    let unit = 1u64 << max_len;
    let mut any_over = false;
    for l in lens.iter_mut() {
        if *l == 0 {
            continue;
        }
        if *l > max_len {
            *l = max_len;
            any_over = true;
        }
        kraft += unit >> *l;
    }
    if !any_over && kraft <= unit {
        return;
    }
    // While the code over-subscribes the space, lengthen the shortest
    // subscribed codes (cheapest fix in expected bits).
    while kraft > unit {
        // Find a symbol with the smallest length < max_len and bump it.
        let mut best: Option<usize> = None;
        for (i, &l) in lens.iter().enumerate() {
            if l > 0 && l < max_len && best.map(|b| l < lens[b]).unwrap_or(true) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                kraft -= unit >> lens[i];
                lens[i] += 1;
                kraft += unit >> lens[i];
            }
            None => break, // All at max_len: cannot happen with n <= 2^max_len.
        }
    }
}

/// Payload size in bits of coding a histogram with the given code lengths.
pub fn encoded_bits(freqs: &[u64], lens: &[u32]) -> u64 {
    freqs.iter().zip(lens).map(|(&f, &l)| f * l as u64).sum()
}

/// First canonical code of each length 1..=[`MAX_CODE_LEN`] (RFC 1951
/// §3.2.2, step 2). All lengths must be <= [`MAX_CODE_LEN`].
fn first_codes(lens: &[u32]) -> [u32; MAX_CODE_LEN as usize + 1] {
    let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lens {
        bl_count[l as usize] += 1;
    }
    bl_count[0] = 0; // Absent symbols take no code space.
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 1];
    let mut code = 0u32;
    for bits in 1..next_code.len() {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    next_code
}

/// Assign canonical codes given code lengths (each <= [`MAX_CODE_LEN`]).
/// Returns `(code, len)` pairs, `(0, 0)` for absent symbols. Codes are
/// MSB-first values of `len` bits.
pub fn canonical_codes(lens: &[u32]) -> Vec<(u32, u32)> {
    let mut next_code = first_codes(lens);
    lens.iter()
        .map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c, l)
            }
        })
        .collect()
}

/// Table-driven canonical Huffman decoder.
#[derive(Debug)]
pub struct Decoder {
    /// `table[peeked_bits] = symbol << 4 | code_len`, 0 for an unused code;
    /// index width = `max_len`.
    table: Vec<u16>,
    max_len: u32,
}

impl Decoder {
    /// Build a decoder from code lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the lengths do not describe a
    /// prefix-valid (possibly incomplete) code, exceed [`MAX_CODE_LEN`], or
    /// the alphabet has more than 4096 symbols.
    pub fn from_lengths(lens: &[u32]) -> Result<Decoder> {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Ok(Decoder {
                table: Vec::new(),
                max_len: 0,
            });
        }
        if max_len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("code length exceeds limit"));
        }
        if lens.len() > 1 << 12 {
            return Err(CodecError::Corrupt("alphabet too large"));
        }
        // Kraft check: reject over-subscribed codes.
        let unit = 1u64 << max_len;
        let used: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
        if used > unit {
            return Err(CodecError::Corrupt("over-subscribed Huffman code"));
        }
        let mut next_code = first_codes(lens);
        let mut table = vec![0u16; 1usize << max_len];
        for (sym, &len) in lens.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let code = next_code[len as usize];
            next_code[len as usize] += 1;
            // The bitstream is LSB-first with codes written bit-reversed, so
            // the table is indexed by the reversed code with all possible
            // suffixes.
            let entry = (sym as u16) << 4 | len as u16;
            let mut i = crate::bitio::reverse_bits(code, len) as usize;
            while i < table.len() {
                table[i] = entry;
                i += 1 << len;
            }
        }
        Ok(Decoder { table, max_len })
    }

    /// Decode one symbol from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] on invalid codes or underrun.
    #[inline]
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16> {
        if self.max_len == 0 {
            return Err(CodecError::Corrupt("empty Huffman table"));
        }
        let entry = self.table[reader.peek_bits(self.max_len) as usize];
        if entry == 0 {
            return Err(CodecError::Corrupt("invalid Huffman code"));
        }
        reader.consume((entry & 0xf) as u32)?;
        Ok(entry >> 4)
    }
}

/// Encoder-side code table, holding each code already bit-reversed for the
/// LSB-first stream.
#[derive(Debug)]
pub struct Encoder {
    codes: Vec<(u32, u32)>,
}

impl Encoder {
    /// Build an encoder from code lengths.
    pub fn from_lengths(lens: &[u32]) -> Encoder {
        let codes = canonical_codes(lens)
            .into_iter()
            .map(|(code, len)| (crate::bitio::reverse_bits(code, len), len))
            .collect();
        Encoder { codes }
    }

    /// Emit the code for `sym` into `writer`.
    #[inline]
    pub fn encode(&self, writer: &mut BitWriter<'_>, sym: usize) {
        let (code, len) = self.codes[sym];
        debug_assert!(len > 0, "encoding absent symbol {sym}");
        writer.write_bits(code as u64, len);
    }

    /// Emit the code for `sym` followed by `extra_bits` raw bits of `extra`,
    /// in one write (`len(sym) + extra_bits` must be <= 32).
    #[inline]
    pub fn encode_with_extra(
        &self,
        writer: &mut BitWriter<'_>,
        sym: usize,
        extra: u32,
        extra_bits: u32,
    ) {
        let (code, len) = self.codes[sym];
        debug_assert!(len > 0, "encoding absent symbol {sym}");
        writer.write_bits(code as u64 | (extra as u64) << len, len + extra_bits);
    }
}

/// Serialize code lengths compactly: pairs of (length nibble-packed RLE).
///
/// Format: varint count, then bytes `(len << 4) | min(run,15)` with varint
/// continuation when run > 15.
pub fn write_lengths(dst: &mut Vec<u8>, lens: &[u32]) {
    crate::bitio::write_varint(dst, lens.len() as u64);
    let mut i = 0;
    while i < lens.len() {
        let l = lens[i];
        let mut run = 1usize;
        while i + run < lens.len() && lens[i + run] == l {
            run += 1;
        }
        debug_assert!(l <= 15);
        if run < 15 {
            dst.push(((l as u8) << 4) | run as u8);
        } else {
            dst.push(((l as u8) << 4) | 15);
            crate::bitio::write_varint(dst, (run - 15) as u64);
        }
        i += run;
    }
}

/// Deserialize code lengths written by [`write_lengths`].
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on truncation or count mismatch.
pub fn read_lengths(src: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    let count = crate::bitio::read_varint(src, pos)? as usize;
    if count > 1 << 20 {
        return Err(CodecError::Corrupt("absurd alphabet size"));
    }
    let mut lens = Vec::with_capacity(count);
    while lens.len() < count {
        let byte = *src
            .get(*pos)
            .ok_or(CodecError::Corrupt("lengths truncated"))?;
        *pos += 1;
        let l = (byte >> 4) as u32;
        let mut run = (byte & 0xf) as usize;
        if run == 15 {
            run = 15 + crate::bitio::read_varint(src, pos)? as usize;
        }
        if lens.len() + run > count {
            return Err(CodecError::Corrupt("length run overflows alphabet"));
        }
        lens.extend(std::iter::repeat_n(l, run));
    }
    Ok(lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{BitReader, BitWriter};

    #[test]
    fn skewed_frequencies_round_trip() {
        let mut freqs = vec![0u64; 64];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = ((i * i) % 97) as u64;
        }
        freqs[3] = 100_000; // Force a very short code somewhere.
        let lens = code_lengths(&freqs);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();

        let symbols: Vec<usize> = (0..64).filter(|&s| freqs[s] > 0).collect();
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        for &s in &symbols {
            enc.encode(&mut w, s);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = vec![0u64, 0, 7, 0];
        let lens = code_lengths(&freqs);
        assert_eq!(lens[2], 1);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        for _ in 0..5 {
            enc.encode(&mut w, 2);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for _ in 0..5 {
            assert_eq!(dec.decode(&mut r).unwrap(), 2);
        }
    }

    /// The heap construction the two-queue one must reproduce exactly:
    /// min-heap on `(freq, node id)`, leaves numbered by symbol, internal
    /// nodes after them in creation order.
    fn heap_code_lengths(freqs: &[u64]) -> Vec<u32> {
        use std::cmp::Reverse;
        let n = freqs.len();
        let mut lens = vec![0u32; n];
        let mut heap: std::collections::BinaryHeap<Reverse<(u64, usize)>> = freqs
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(i, &f)| Reverse((f, i)))
            .collect();
        if heap.len() == 1 {
            lens[heap.peek().unwrap().0 .1] = 1;
            return lens;
        }
        let mut parent = vec![usize::MAX; 2 * n];
        let mut next = n;
        while heap.len() > 1 {
            let Reverse((fa, a)) = heap.pop().unwrap();
            let Reverse((fb, b)) = heap.pop().unwrap();
            parent[a] = next;
            parent[b] = next;
            heap.push(Reverse((fa + fb, next)));
            next += 1;
        }
        for (i, len) in lens.iter_mut().enumerate() {
            let mut node = i;
            while freqs[i] > 0 && parent[node] != usize::MAX {
                node = parent[node];
                *len += 1;
            }
        }
        limit_lengths(&mut lens, MAX_CODE_LEN);
        lens
    }

    #[test]
    fn two_queue_matches_heap_construction() {
        // Small frequency ranges force many ties between leaves and
        // internal nodes; power-of-two frequencies skew the tree past
        // MAX_CODE_LEN and exercise the length limit.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut limited = 0;
        for case in 0..600 {
            let n = [2usize, 3, 30, 286][case % 4];
            let range = [2u64, 4, 17, 0][case / 4 % 4];
            let freqs: Vec<u64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match (x.is_multiple_of(3), range) {
                        (true, _) => 0,
                        (false, 0) => 1 << ((x >> 20) % 40),
                        (false, r) => (x >> 20) % r + 1,
                    }
                })
                .collect();
            let lens = code_lengths(&freqs);
            assert_eq!(lens, heap_code_lengths(&freqs), "{freqs:?}");
            limited += lens.contains(&MAX_CODE_LEN) as usize;
        }
        assert!(limited > 0, "no case reached the length limit");
    }

    #[test]
    fn lengths_respect_limit() {
        // Fibonacci-ish frequencies produce maximally skewed trees.
        let mut freqs = vec![1u64; 40];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        // Kraft inequality must hold.
        let unit = 1u64 << MAX_CODE_LEN;
        let used: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
        assert!(used <= unit, "kraft violated: {used} > {unit}");
    }

    #[test]
    fn lengths_serialization_round_trip() {
        let lens: Vec<u32> = vec![
            0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 3, 2, 0,
        ];
        let mut buf = Vec::new();
        write_lengths(&mut buf, &lens);
        let mut pos = 0;
        let restored = read_lengths(&buf, &mut pos).unwrap();
        assert_eq!(restored, lens);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn oversubscribed_code_rejected() {
        // Three symbols of length 1 is invalid.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }
}
