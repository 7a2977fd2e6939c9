//! Synthetic data corpora with controlled compressibility.
//!
//! The paper characterizes tiers on two Silesia corpus files: `nci` (chemical
//! database, highly compressible) and `dickens` (English prose, moderately
//! compressible). Those files are not redistributable here, so this module
//! synthesizes data with matching *compression behaviour* (see DESIGN.md §2):
//!
//! * [`fill_nci_like`] — repetitive, line-structured records with a tiny
//!   alphabet and heavy long-range repetition; deflate reaches ~10:1+ on
//!   real nci and on this generator.
//! * [`fill_dickens_like`] — prose with English-like word/sentence structure;
//!   ~2.5–3.5:1 under deflate, ~2:1 under lz4, as for real dickens.
//! * [`fill_binary_like`] — struct-of-arrays binary data (graph indices,
//!   float features): mildly compressible.
//! * [`fill_noise`] — incompressible high-entropy filler.
//!
//! All generators are deterministic functions of `(seed, page_index)` so a
//! page's content can be regenerated at any time instead of being stored.

/// Content classes a page can carry, used by workloads to describe their
/// address-space layout and by the modeled-fidelity calibrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageClass {
    /// Untouched/zero page.
    Zero,
    /// nci-like highly compressible structured text.
    HighlyCompressible,
    /// dickens-like natural text.
    Text,
    /// Binary arrays (indices, floats).
    Binary,
    /// High-entropy data (encrypted/compressed payloads).
    Incompressible,
}

impl PageClass {
    /// All classes.
    pub const ALL: [PageClass; 5] = [
        PageClass::Zero,
        PageClass::HighlyCompressible,
        PageClass::Text,
        PageClass::Binary,
        PageClass::Incompressible,
    ];

    /// Fill `buf` with this class's content, deterministically from
    /// `(seed, index)`.
    pub fn fill(self, seed: u64, index: u64, buf: &mut [u8]) {
        match self {
            PageClass::Zero => buf.fill(0),
            PageClass::HighlyCompressible => fill_nci_like(seed, index, buf),
            PageClass::Text => fill_dickens_like(seed, index, buf),
            PageClass::Binary => fill_binary_like(seed, index, buf),
            PageClass::Incompressible => fill_noise(seed, index, buf),
        }
    }
}

#[inline]
fn mix(seed: u64, index: u64) -> u64 {
    // splitmix64 over the pair.
    let mut z = seed ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

struct Lcg(u64);

impl Lcg {
    #[inline]
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    #[inline]
    fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 33) as usize) % n
    }
}

/// Highly compressible chemical-database-like records (nci analogue).
pub fn fill_nci_like(seed: u64, index: u64, buf: &mut [u8]) {
    let mut rng = Lcg(mix(seed, index));
    // A handful of templates repeated with tiny numeric variations, giving
    // long-range redundancy like nci's SDF records.
    const TEMPLATES: [&str; 3] = [
        "  -OEChem-010203  C1=CC=C(C=C1)O  0  0  0  0  0  0\n",
        "M  END\n> <CAS>\n000-00-0\n\n$$$$\n",
        "  1  2  1  0  0  0  0\n  2  3  2  0  0  0  0\n",
    ];
    let mut pos = 0usize;
    while pos < buf.len() {
        let t = TEMPLATES[rng.below(3)].as_bytes();
        let n = t.len().min(buf.len() - pos);
        buf[pos..pos + n].copy_from_slice(&t[..n]);
        // Sparse digit perturbation keeps entropy > 0 without hurting ratio.
        if n > 8 && rng.below(4) == 0 {
            buf[pos + 2] = b'0' + (rng.below(10) as u8);
        }
        pos += n;
    }
}

/// Draws of [`fill_dickens_like`]'s Zipf-ish word pick: word `w` of 64 has
/// weight `64 - w`, and the weights sum to this.
const ZIPF_DRAWS: usize = 64 * 65 / 2;

/// The word each Zipf draw `r < ZIPF_DRAWS` picks: the first `w` whose
/// cumulative weight exceeds `r`. Built by the walk it replaces, so the
/// text is byte-identical to walking the weights per word.
const ZIPF_WORD: [u8; ZIPF_DRAWS] = {
    let mut t = [0u8; ZIPF_DRAWS];
    let mut r = 0;
    while r < ZIPF_DRAWS {
        let mut w = 0;
        let mut acc = 64;
        let mut weight = 64;
        while acc <= r && weight > 1 {
            weight -= 1;
            acc += weight;
            w += 1;
        }
        t[r] = w;
        r += 1;
    }
    t
};

/// English-prose-like text (dickens analogue): Zipf-weighted word soup with
/// sentence and paragraph structure.
pub fn fill_dickens_like(seed: u64, index: u64, buf: &mut [u8]) {
    const WORDS: [&str; 64] = [
        "the", "of", "and", "a", "to", "in", "he", "was", "that", "it", "his", "her", "with", "as",
        "had", "for", "at", "not", "on", "but", "be", "they", "you", "which", "she", "him", "all",
        "were", "this", "have", "said", "from", "one", "when", "who", "them", "been", "would",
        "there", "what", "little", "old", "time", "upon", "great", "such", "never", "very", "much",
        "over", "again", "down", "house", "himself", "before", "through", "hand", "head", "night",
        "without", "looked", "found", "thought", "young",
    ];
    let mut rng = Lcg(mix(seed, index));
    let mut pos = 0usize;
    let mut words_in_sentence = 0usize;
    let mut capitalize = true;
    while pos < buf.len() {
        // Zipf-ish pick: prefer low indices.
        let word = WORDS[ZIPF_WORD[rng.below(ZIPF_DRAWS)] as usize].as_bytes();
        let n = word.len().min(buf.len() - pos);
        buf[pos..pos + n].copy_from_slice(&word[..n]);
        if capitalize && n > 0 {
            buf[pos] = buf[pos].to_ascii_uppercase();
            capitalize = false;
        }
        pos += n;
        words_in_sentence += 1;
        if pos < buf.len() {
            if words_in_sentence >= 6 + rng.below(10) {
                buf[pos] = b'.';
                pos += 1;
                capitalize = true;
                words_in_sentence = 0;
                if pos < buf.len() {
                    buf[pos] = if rng.below(8) == 0 { b'\n' } else { b' ' };
                    pos += 1;
                }
            } else {
                buf[pos] = b' ';
                pos += 1;
            }
        }
    }
}

/// Binary array data: 32-bit deltas and quantized floats (graph/ML pages).
pub fn fill_binary_like(seed: u64, index: u64, buf: &mut [u8]) {
    let mut rng = Lcg(mix(seed, index));
    let mut v: u32 = (rng.next() >> 40) as u32;
    for chunk in buf.chunks_mut(4) {
        // Small deltas keep top bytes similar across words: mildly
        // compressible, like CSR neighbor lists and quantized features.
        v = v.wrapping_add((rng.below(64)) as u32);
        let bytes = v.to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

/// High-entropy noise (incompressible).
pub fn fill_noise(seed: u64, index: u64, buf: &mut [u8]) {
    let mut rng = Lcg(mix(seed, index));
    for chunk in buf.chunks_mut(8) {
        let bytes = rng.next().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_compress::{compression_ratio, Algorithm};

    fn page(class: PageClass, idx: u64) -> Vec<u8> {
        let mut buf = vec![0u8; 4096];
        class.fill(1234, idx, &mut buf);
        buf
    }

    #[test]
    fn deterministic_regeneration() {
        for class in PageClass::ALL {
            assert_eq!(page(class, 7), page(class, 7), "{class:?}");
            if class != PageClass::Zero {
                assert_ne!(page(class, 7), page(class, 8), "{class:?}");
            }
        }
    }

    #[test]
    fn nci_like_is_highly_compressible() {
        let deflate = Algorithm::Deflate.codec();
        let p = page(PageClass::HighlyCompressible, 3);
        let r = compression_ratio(deflate.as_ref(), &p);
        assert!(r < 0.2, "nci-like deflate ratio {r}");
    }

    #[test]
    fn dickens_like_is_moderately_compressible() {
        let deflate = Algorithm::Deflate.codec();
        let lz4 = Algorithm::Lz4.codec();
        let p = page(PageClass::Text, 3);
        let rd = compression_ratio(deflate.as_ref(), &p);
        let rl = compression_ratio(lz4.as_ref(), &p);
        assert!(rd > 0.2 && rd < 0.55, "dickens-like deflate ratio {rd}");
        assert!(rl > rd, "lz4 {rl} should be worse than deflate {rd}");
        assert!(rl < 0.95, "lz4 must still compress text, got {rl}");
    }

    #[test]
    fn noise_is_incompressible() {
        let lz4 = Algorithm::Lz4.codec();
        let p = page(PageClass::Incompressible, 3);
        let r = compression_ratio(lz4.as_ref(), &p);
        assert!(r > 0.98, "noise ratio {r}");
    }

    #[test]
    fn class_compressibility_ordering() {
        let zstd = Algorithm::Zstd.codec();
        let ratios: Vec<f64> = [
            PageClass::Zero,
            PageClass::HighlyCompressible,
            PageClass::Text,
            PageClass::Binary,
            PageClass::Incompressible,
        ]
        .iter()
        .map(|&c| compression_ratio(zstd.as_ref(), &page(c, 11)))
        .collect();
        for w in ratios.windows(2) {
            assert!(w[0] <= w[1] + 0.05, "ordering violated: {ratios:?}");
        }
    }

    #[test]
    fn partial_page_fills() {
        for class in PageClass::ALL {
            for len in [0usize, 1, 7, 100, 4095] {
                let mut buf = vec![0xEE; len];
                class.fill(9, 1, &mut buf);
                assert_eq!(buf.len(), len);
            }
        }
    }
}
