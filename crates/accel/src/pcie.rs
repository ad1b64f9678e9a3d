//! PCIe transfer model.
//!
//! The paper's data-movement findings this model reproduces:
//!
//! * the `pin` compiler option "avoids the cost of transfers between
//!   pageable and pinned host arrays" — pinned host buffers see full PCIe
//!   bandwidth, pageable ones a fraction of it,
//! * "exchanging only ghost nodes (partial transfers) instead of the whole
//!   domain ... significantly reduces the amount of data exchange", but
//!   "exchanging non-contiguous data remains a non-optimal solution" — a
//!   strided transfer is billed per contiguous chunk.

use crate::{DeviceSpec, SimTime};

/// Host-side allocation kind (the PGI `pin` option of Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostAlloc {
    /// Page-locked host memory: full DMA bandwidth.
    Pinned,
    /// Ordinary pageable memory: staged through a driver bounce buffer.
    Pageable,
}

/// Shape of a transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferKind {
    /// One contiguous range.
    Contiguous,
    /// `chunks` separate ranges of `chunk_bytes` each (ghost-node planes of
    /// a non-contiguous axis).
    Strided {
        /// Number of contiguous pieces.
        chunks: u64,
        /// Bytes per piece.
        chunk_bytes: u64,
    },
}

/// Per-chunk fixed cost of a strided DMA descriptor, seconds.
const STRIDED_CHUNK_COST_S: f64 = 1.2e-6;

/// Model the duration of one host↔device copy of `bytes` bytes.
pub fn transfer_time(
    dev: &DeviceSpec,
    bytes: u64,
    alloc: HostAlloc,
    kind: TransferKind,
) -> SimTime {
    let bw = match alloc {
        HostAlloc::Pinned => dev.pcie_pinned_gbs,
        HostAlloc::Pageable => dev.pcie_pageable_gbs,
    } * 1e9;
    let base = dev.pcie_latency_s + bytes as f64 / bw;
    match kind {
        TransferKind::Contiguous => base,
        TransferKind::Strided { chunks, .. } => {
            // Descriptor overhead per chunk; small chunks also waste bus
            // efficiency (modeled inside the per-chunk cost).
            base + chunks as f64 * STRIDED_CHUNK_COST_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_beats_pageable() {
        let dev = DeviceSpec::m2090();
        let n = 64 << 20;
        let p = transfer_time(&dev, n, HostAlloc::Pinned, TransferKind::Contiguous);
        let g = transfer_time(&dev, n, HostAlloc::Pageable, TransferKind::Contiguous);
        assert!(g / p > 1.8, "ratio {}", g / p);
    }

    #[test]
    fn latency_dominates_tiny_transfers() {
        let dev = DeviceSpec::k40();
        let t = transfer_time(&dev, 4, HostAlloc::Pinned, TransferKind::Contiguous);
        assert!(t >= dev.pcie_latency_s);
        assert!(t < dev.pcie_latency_s * 1.01);
    }

    #[test]
    fn strided_costs_more_than_contiguous() {
        let dev = DeviceSpec::k40();
        let bytes = 4 << 20;
        let c = transfer_time(&dev, bytes, HostAlloc::Pinned, TransferKind::Contiguous);
        let s = transfer_time(
            &dev,
            bytes,
            HostAlloc::Pinned,
            TransferKind::Strided {
                chunks: 1024,
                chunk_bytes: 4096,
            },
        );
        assert!(s > c * 2.0, "{s} vs {c}");
    }

    /// Duration of exchanging 8 ghost planes of an `n`×`n` f32 face, each
    /// plane one contiguous chunk or `n` strided rows.
    fn ghost_planes(dev: &DeviceSpec, n: u64, contiguous: bool) -> SimTime {
        let kind = if contiguous {
            TransferKind::Contiguous
        } else {
            TransferKind::Strided {
                chunks: n,
                chunk_bytes: n * 4,
            }
        };
        (0..8)
            .map(|_| transfer_time(dev, n * n * 4, HostAlloc::Pinned, kind))
            .sum()
    }

    /// Partial (ghost-only) transfers must beat whole-domain transfers even
    /// when strided — the paper's justification for the extra programming
    /// effort.
    #[test]
    fn ghost_exchange_beats_full_domain() {
        let dev = DeviceSpec::m2090();
        let n = 512u64;
        let full = transfer_time(
            &dev,
            n * n * n * 4,
            HostAlloc::Pinned,
            TransferKind::Contiguous,
        );
        let ghosts = ghost_planes(&dev, n, false);
        assert!(ghosts < full / 4.0, "ghosts {ghosts} vs full {full}");
    }

    #[test]
    fn contiguous_ghost_cheaper_than_strided_ghost() {
        let dev = DeviceSpec::m2090();
        let n = 512u64;
        assert!(ghost_planes(&dev, n, true) < ghost_planes(&dev, n, false));
    }
}
