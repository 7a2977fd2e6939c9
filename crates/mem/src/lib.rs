#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![allow(
    clippy::disallowed_types,
    reason = "the buddy allocator's allocated-block map is lookup-only; no hash order reaches an artifact"
)]

//! # ts-mem — simulated physical memory substrate
//!
//! Models the hardware memory tiers TierScape runs on: per-medium access
//! latency and unit cost (DRAM, Optane-style NVMM, CXL-attached memory), NUMA
//! nodes with fixed capacity, and a buddy allocator handing out page frames.
//!
//! The paper's testbed is a 2-socket Xeon with 384 GB DRAM + 1.6 TB Optane in
//! flat mode. This crate substitutes that hardware with parameterized models:
//! the placement models and TCO accounting only ever consume `(latency,
//! cost_per_gb, capacity)` triples, so a faithful parameterization preserves
//! every decision the system makes (see DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use ts_mem::{Machine, MediaKind};
//!
//! let machine = Machine::builder()
//!     .node(MediaKind::Dram, 4 << 20)   // 4 MiB DRAM node
//!     .node(MediaKind::Nvmm, 16 << 20)  // 16 MiB NVMM node
//!     .build();
//! assert_eq!(machine.nodes().len(), 2);
//! let frame = machine.node(0).alloc_frame().unwrap();
//! machine.node(0).free_frame(frame).unwrap();
//! ```

pub mod buddy;
pub mod machine;
pub mod media;

pub use buddy::{BuddyAllocator, BuddyError, MAX_ORDER};
pub use machine::{Machine, MachineBuilder, NodeId, NumaNode};
pub use media::{MediaKind, MediaSpec};

/// Size of a base page frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Shift corresponding to [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// A physical frame number within one NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameNumber(pub u64);

impl FrameNumber {
    /// Byte offset of this frame within its node.
    pub fn byte_offset(self) -> u64 {
        self.0 << PAGE_SHIFT
    }
}

/// A frame qualified with its owning node, i.e. a machine-wide location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysFrame {
    /// Owning NUMA node.
    pub node: NodeId,
    /// Frame within the node.
    pub frame: FrameNumber,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_number_offset() {
        assert_eq!(FrameNumber(0).byte_offset(), 0);
        assert_eq!(FrameNumber(1).byte_offset(), 4096);
        assert_eq!(FrameNumber(256).byte_offset(), 1 << 20);
    }

    #[test]
    fn page_size_constants_consistent() {
        assert_eq!(1usize << PAGE_SHIFT, PAGE_SIZE);
    }
}
