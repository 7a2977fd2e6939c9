//! A single compressed memory tier: codec + pool + backing medium.

use crate::config::TierConfig;
use crate::{ZswapError, ZswapResult};
use std::sync::Arc;
use ts_compress::{Codec, CodecError};
use ts_mem::{Machine, NodeId, PAGE_SIZE};
use ts_zpool::{Handle, PoolError, PoolStats, ZPool};

/// Modeled cost of reconstructing a same-filled page (a 4 KiB memset).
pub const SAME_FILLED_FAULT_NS: f64 = 400.0;

/// Identifier of a tier within a [`crate::ZswapSubsystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TierId(pub u32);

/// Per-tier counters, mirroring the paper's added "tier statistics" kernel
/// support (§7.1: pages in the tier, size of the tier, total faults).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierStats {
    /// Pages currently stored compressed in this tier.
    pub pages: u64,
    /// Sum of compressed payload bytes of live pages.
    pub compressed_bytes: u64,
    /// Total store operations ever performed.
    pub stores: u64,
    /// Total faults (loads) ever served.
    pub faults: u64,
    /// Pages rejected as incompressible.
    pub rejections: u64,
    /// Pages migrated into this tier from another tier.
    pub migrations_in: u64,
    /// Pages migrated out of this tier to another tier.
    pub migrations_out: u64,
    /// Pages stored as same-filled markers (no pool space at all).
    pub same_filled: u64,
    /// Pages written back to the swap device under pool pressure.
    pub writebacks: u64,
    /// Stores failed by injected compression faults (chaos testing).
    pub compress_failures: u64,
}

/// A stored compressed page: pool handle plus sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredPage {
    /// Pool handle for retrieval (unused for same-filled pages).
    pub handle: Handle,
    /// Compressed payload size in bytes (0 for same-filled pages).
    pub compressed_len: usize,
    /// Original (uncompressed) size in bytes.
    pub original_len: usize,
    /// Kernel zswap's same-filled-page optimization: a page whose bytes are
    /// all identical is stored as just this marker value, consuming no pool
    /// space and faulting back with a memset instead of a decompression.
    pub same_filled: Option<u8>,
}

impl StoredPage {
    /// True when the page is stored as a same-filled marker.
    pub fn is_same_filled(&self) -> bool {
        self.same_filled.is_some()
    }
}

/// Detect the kernel's "same-filled" case: every byte of the page equal.
fn same_filled_value(page: &[u8]) -> Option<u8> {
    let &first = page.first()?;
    page.iter().all(|&b| b == first).then_some(first)
}

/// Decode one compressed page with `codec`. The fault path of a tier and
/// the swap-in path share it: a stream that decodes to any length other
/// than `original_len` is corrupt too.
///
/// # Errors
///
/// [`ZswapError::Codec`] if the stream fails to decode or decodes to the
/// wrong length.
pub fn decode_page(
    codec: &dyn Codec,
    compressed: &[u8],
    original_len: usize,
) -> ZswapResult<Vec<u8>> {
    let mut page = Vec::with_capacity(original_len);
    codec
        .decompress(compressed, &mut page)
        .map_err(ZswapError::Codec)?;
    if page.len() != original_len {
        return Err(ZswapError::Codec(CodecError::Corrupt(
            "decoded length differs from the stored page's",
        )));
    }
    Ok(page)
}

/// The pure half of a store: [`CompressedTier::compress`] output, consumed
/// by [`CompressedTier::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compressed {
    /// Every byte of the page is this value: stored as a marker.
    SameFilled(u8),
    /// The codec's output.
    Bytes(Vec<u8>),
    /// The codec refused the page (incompressible, or a codec error).
    Rejected(CodecError),
}

/// One active compressed tier.
pub struct CompressedTier {
    id: TierId,
    config: TierConfig,
    codec: Box<dyn Codec>,
    pool: Box<dyn ZPool>,
    node: NodeId,
    stats: TierStats,
    faults: Option<Arc<ts_faults::FaultPlan>>,
}

impl CompressedTier {
    /// Create a tier from `config`, drawing pool pages from the node of
    /// `config.media` on `machine`.
    ///
    /// # Errors
    ///
    /// [`ZswapError::NoSuchMedia`] if the machine has no node of the
    /// configured backing medium.
    pub fn new(id: TierId, config: TierConfig, machine: Arc<Machine>) -> ZswapResult<Self> {
        let node = machine
            .node_of_kind(config.media)
            .ok_or(ZswapError::NoSuchMedia {
                media: config.media,
            })?
            .id();
        let codec = config.algorithm.codec();
        let pool = config.pool.create(machine, node);
        Ok(CompressedTier {
            id,
            config,
            codec,
            pool,
            node,
            stats: TierStats::default(),
            faults: None,
        })
    }

    /// Install a deterministic fault-injection plan on this tier and its
    /// pool. Store decisions are keyed by the tier/pool store counters,
    /// which only the serial insert step advances, so a fixed seed gives
    /// the same faults at any worker count.
    pub fn set_fault_plan(&mut self, plan: Arc<ts_faults::FaultPlan>) {
        // Distinct per-tier salts keep pools drawing independently.
        self.pool
            .set_fault_plan(Some(plan.clone()), (u64::from(self.id.0) + 1) << 32);
        self.faults = Some(plan);
    }

    /// Tier identifier.
    pub fn id(&self) -> TierId {
        self.id
    }

    /// Tier configuration.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Backing NUMA node the pool allocates from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Tier counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Pool-level statistics (backing pages, density).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Compress and store a page: [`CompressedTier::insert`] of
    /// [`CompressedTier::compress`], the one store path.
    ///
    /// # Errors
    ///
    /// [`ZswapError::Incompressible`] if the page does not shrink (zswap's
    /// rejection rule — the caller must keep the page uncompressed);
    /// [`ZswapError::Pool`] on pool failures (e.g. backing node exhausted).
    pub fn store(&mut self, page: &[u8]) -> ZswapResult<StoredPage> {
        let compressed = self.compress(page);
        self.insert(compressed, page.len())
    }

    /// The pure half of a store: apply this tier's codec to `page`. Reads
    /// nothing but the codec, so any number of pages can be compressed in
    /// parallel from `&self`.
    pub fn compress(&self, page: &[u8]) -> Compressed {
        debug_assert!(page.len() <= PAGE_SIZE);
        if let Some(v) = same_filled_value(page) {
            return Compressed::SameFilled(v);
        }
        let mut buf = Vec::with_capacity(page.len());
        match self.codec.compress(page, &mut buf) {
            Ok(_) => Compressed::Bytes(buf),
            Err(e) => Compressed::Rejected(e),
        }
    }

    /// The stateful half of a store: put a [`CompressedTier::compress`]
    /// result for a page of `original_len` bytes into the pool. Fault
    /// draws, pool allocation and statistics all happen here.
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::store`]; [`ZswapError::CompressFailed`] when
    /// an installed fault plan trips.
    pub fn insert(&mut self, page: Compressed, original_len: usize) -> ZswapResult<StoredPage> {
        let buf = match page {
            // Same-filled fast path (kernel zswap): no compression, no pool.
            Compressed::SameFilled(v) => {
                self.stats.pages += 1;
                self.stats.stores += 1;
                self.stats.same_filled += 1;
                return Ok(StoredPage {
                    handle: Handle(u64::MAX),
                    compressed_len: 0,
                    original_len,
                    same_filled: Some(v),
                });
            }
            // Keyed by this tier's store count, which only this serial
            // step advances: deterministic for a fixed seed.
            _ if self.faults.as_ref().is_some_and(|plan| {
                let key = (u64::from(self.id.0) << 40) ^ self.stats.stores;
                plan.trips(ts_faults::FaultSite::ZswapStore, key)
            }) =>
            {
                self.stats.compress_failures += 1;
                return Err(ZswapError::CompressFailed);
            }
            Compressed::Bytes(buf) => buf,
            Compressed::Rejected(CodecError::Incompressible { .. }) => {
                self.stats.rejections += 1;
                return Err(ZswapError::Incompressible);
            }
            Compressed::Rejected(e) => return Err(ZswapError::Codec(e)),
        };
        let handle = self.pool.store(&buf).map_err(ZswapError::Pool)?;
        self.stats.pages += 1;
        self.stats.compressed_bytes += buf.len() as u64;
        self.stats.stores += 1;
        Ok(StoredPage {
            handle,
            compressed_len: buf.len(),
            original_len,
            same_filled: None,
        })
    }

    /// Fault path: decompress the page behind `stored` and invalidate it in
    /// the pool (zswap removes the entry once the page returns to memory).
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] for stale handles, [`ZswapError::Codec`] if the
    /// stored bytes fail to decompress (corruption).
    pub fn load(&mut self, stored: StoredPage) -> ZswapResult<Vec<u8>> {
        let page = self.decompress(stored)?;
        if !stored.is_same_filled() {
            self.pool.remove(stored.handle).map_err(ZswapError::Pool)?;
            self.stats.compressed_bytes -= stored.compressed_len as u64;
        }
        self.stats.pages -= 1;
        self.stats.faults += 1;
        Ok(page)
    }

    /// Decompress the page behind `stored` without invalidating it or
    /// touching statistics (the read half of [`CompressedTier::load`]).
    ///
    /// # Errors
    ///
    /// See [`CompressedTier::load`]. A stream that decodes to any length
    /// other than [`StoredPage::original_len`] is corrupt too.
    pub fn decompress(&self, stored: StoredPage) -> ZswapResult<Vec<u8>> {
        if let Some(v) = stored.same_filled {
            return Ok(vec![v; stored.original_len]);
        }
        let compressed = self.peek_compressed(stored)?;
        decode_page(self.codec.as_ref(), &compressed, stored.original_len)
    }

    /// Read the raw compressed bytes without decompressing or invalidating
    /// (used by the same-algorithm migration fast path).
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] for stale handles.
    pub fn peek_compressed(&self, stored: StoredPage) -> ZswapResult<Vec<u8>> {
        debug_assert!(
            !stored.is_same_filled(),
            "same-filled pages have no pool bytes"
        );
        let mut compressed = Vec::with_capacity(stored.compressed_len);
        self.pool
            .load(stored.handle, &mut compressed)
            .map_err(ZswapError::Pool)?;
        Ok(compressed)
    }

    /// Store bytes that are already compressed with this tier's algorithm
    /// (migration fast path target side).
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] on pool failures.
    pub fn store_precompressed(
        &mut self,
        compressed: &[u8],
        original_len: usize,
    ) -> ZswapResult<StoredPage> {
        let handle = self.pool.store(compressed).map_err(ZswapError::Pool)?;
        self.stats.pages += 1;
        self.stats.compressed_bytes += compressed.len() as u64;
        self.stats.stores += 1;
        self.stats.migrations_in += 1;
        Ok(StoredPage {
            handle,
            compressed_len: compressed.len(),
            original_len,
            same_filled: None,
        })
    }

    /// Accept a same-filled marker migrated from another tier (costs nothing
    /// on either side beyond bookkeeping).
    pub(crate) fn accept_same_filled(&mut self, stored: StoredPage) -> StoredPage {
        debug_assert!(stored.is_same_filled());
        self.stats.pages += 1;
        self.stats.stores += 1;
        self.stats.same_filled += 1;
        self.stats.migrations_in += 1;
        stored
    }

    /// Drop a stored page without decompressing (invalidation, e.g. the
    /// application freed the memory or the page migrated elsewhere).
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] for stale handles.
    pub fn invalidate(&mut self, stored: StoredPage) -> ZswapResult<()> {
        if stored.is_same_filled() {
            self.stats.pages -= 1;
            self.stats.same_filled -= 1;
            return Ok(());
        }
        self.pool.remove(stored.handle).map_err(ZswapError::Pool)?;
        self.stats.pages -= 1;
        self.stats.compressed_bytes -= stored.compressed_len as u64;
        Ok(())
    }

    /// Record an outgoing migration (bookkeeping used by the subsystem).
    pub(crate) fn note_migration_out(&mut self) {
        self.stats.migrations_out += 1;
    }

    /// Record a pool-limit writeback (bookkeeping for [`crate::writeback`]).
    pub(crate) fn note_writeback(&mut self) {
        self.stats.writebacks += 1;
    }

    /// Record an incoming migration that went through the recompress path
    /// (the fast path counts inside [`CompressedTier::store_precompressed`]).
    pub(crate) fn bump_migrations_in(&mut self) {
        self.stats.migrations_in += 1;
    }

    /// Modeled latency of faulting one page out of this tier, in ns:
    /// decompression + pool management + streaming the compressed object off
    /// the backing medium.
    pub fn fault_latency_ns(&self, compressed_len: usize) -> f64 {
        if compressed_len == 0 {
            // Same-filled page: a memset, no decompression or pool access.
            return SAME_FILLED_FAULT_NS;
        }
        let machine_spec = self.config.media.default_spec();
        self.config.decompress_latency_ns() + machine_spec.stream_ns(compressed_len as u64)
    }

    /// Modeled latency of storing one page into this tier, in ns.
    pub fn store_latency_ns(&self, compressed_len: usize) -> f64 {
        let machine_spec = self.config.media.default_spec();
        self.config.compress_latency_ns() + machine_spec.stream_ns(compressed_len as u64)
    }

    /// Memory TCO currently attributable to this tier: backing pool bytes
    /// priced at the backing medium's unit cost (Eq. 8's `P_CT * C_CT *
    /// USD_CT`, with pool overhead included via actual pool pages).
    pub fn tco_cost(&self) -> f64 {
        self.config
            .media
            .default_spec()
            .cost_of_bytes(self.pool_stats().pool_bytes())
    }

    /// Effective compression ratio including pool fragmentation: backing
    /// bytes per original byte for the pages currently stored.
    pub fn effective_ratio(&self) -> f64 {
        let original = self.stats.pages * PAGE_SIZE as u64;
        if original == 0 {
            self.config.nominal_ratio()
        } else {
            self.pool_stats().pool_bytes() as f64 / original as f64
        }
    }
}

impl std::fmt::Debug for CompressedTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedTier")
            .field("id", &self.id)
            .field("config", &self.config.label)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Convert a pool error into the subsystem error space (helper).
impl From<PoolError> for ZswapError {
    fn from(e: PoolError) -> Self {
        ZswapError::Pool(e)
    }
}
