//! Compiler mapping heuristics: `PgiLike` and `CrayLike`.
//!
//! Section 5.2 of the paper is a study of how two compilers lower the same
//! directives differently:
//!
//! * **PGI** — "it was more efficient to use the kernels directive to allow
//!   the compiler to handle the existing worksharing"; `independent`
//!   triggers gridification, 2D gridification needs perfectly nested loops;
//!   PGI 14.3 (CUDA 5.0 back-end) and 14.6 (CUDA 5.5) generate different
//!   code for branchy kernels (Figures 6/7); PGI ignores multi-stream
//!   `async` ("PGI compilers gave a worst performance ... when async was
//!   used to overlap GPU kernels").
//! * **CRAY** — "the more information you pass to the compiler, the better
//!   performance you get"; explicit `parallel gang/worker/vector` with the
//!   innermost loop vectorized wins; plain `kernels` is conservative
//!   (Figures 8/9); `async` is honored and the compiler even defaults to
//!   `auto_async_kernels`.

use crate::construct::{Clause, ConstructKind, LoopNest, LoopSched};

/// PGI compiler release (each bundles a different CUDA back-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PgiVersion {
    /// PGI 13.7 — earliest release used in the paper.
    V13_7,
    /// PGI 14.3 — CUDA 5.0 back-end.
    V14_3,
    /// PGI 14.6 — CUDA 5.5 back-end.
    V14_6,
}

/// A directive-to-device mapping back-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compiler {
    /// PGI-style heuristics.
    Pgi(PgiVersion),
    /// CRAY-style heuristics.
    Cray,
}

/// The lowering decision for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPlan {
    /// Innermost loop mapped to vector lanes.
    pub vectorized: bool,
    /// Vector-lane accesses walk contiguous memory.
    pub coalesced: bool,
    /// Multiplicative codegen-quality penalty (≥ 1.0; 1.0 = best code).
    pub quality: f64,
    /// Register cap forwarded from `maxregcount`.
    pub maxregcount: Option<u32>,
    /// Async queue the launch lands on (None = the sync queue; set only
    /// when the compiler actually honors the clause).
    pub async_stream: Option<u32>,
}

impl Compiler {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Compiler::Pgi(PgiVersion::V13_7) => "PGI 13.7",
            Compiler::Pgi(PgiVersion::V14_3) => "PGI 14.3 (CUDA 5.0)",
            Compiler::Pgi(PgiVersion::V14_6) => "PGI 14.6 (CUDA 5.5)",
            Compiler::Cray => "CRAY 8.2.6",
        }
    }

    /// Lower a loop nest under a compute construct into a [`KernelPlan`].
    ///
    /// `body_divergent` marks bodies with interior branches (the isotropic
    /// PML `if`s) that break perfect nesting.
    pub fn map(
        &self,
        nest: &LoopNest,
        kind: ConstructKind,
        clauses: &[Clause],
        body_divergent: bool,
    ) -> KernelPlan {
        let independent = clauses.iter().any(|c| matches!(c, Clause::Independent));
        let collapse = clauses
            .iter()
            .find_map(|c| match c {
                Clause::Collapse(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(1);
        let maxregcount = clauses.iter().find_map(|c| match c {
            Clause::MaxRegCount(n) => Some(*n),
            _ => None,
        });
        let async_req = clauses.iter().find_map(|c| match c {
            Clause::Async(q) => Some(*q),
            _ => None,
        });
        // A dependence the programmer did not refute forces the innermost
        // loop sequential on both compilers.
        let inner_seq_forced = nest.innermost_dependence && !independent;
        let explicit_inner_vector = matches!(nest.sched.last(), Some(LoopSched::Vector(_)));
        let explicit_inner_seq = matches!(nest.sched.last(), Some(LoopSched::Seq));

        match self {
            Compiler::Pgi(version) => {
                let mut quality = match kind {
                    // PGI's sweet spot: kernels + compiler-owned worksharing.
                    ConstructKind::Kernels => 1.0,
                    // Hand-scheduled parallel is slightly worse under PGI.
                    ConstructKind::Parallel => 1.12,
                };
                quality *= match version {
                    PgiVersion::V13_7 => 1.10,
                    PgiVersion::V14_3 | PgiVersion::V14_6 => 1.0,
                };
                // Figure 6/7 mechanism: 14.3's CUDA 5.0 back-end fails to
                // gridify imperfectly-nested (branchy) bodies — it falls
                // back to a 1-D mapping with far fewer threads in flight.
                if body_divergent && *version == PgiVersion::V14_3 {
                    quality *= 1.45;
                }
                // "Our 3D loop nest case led to the collapsing of the 2
                // innermost loops to generate a 2D grid of hardware
                // accelerator threads": deep nests need `independent` (which
                // triggers gridification) or an explicit `collapse` to get a
                // multi-dimensional grid; otherwise only the outer loop
                // feeds the grid.
                if nest.depth() >= 3 && !independent && collapse < 2 {
                    quality *= 1.15;
                }
                let vectorized = !(inner_seq_forced || explicit_inner_seq);
                KernelPlan {
                    vectorized,
                    coalesced: vectorized && nest.innermost_contiguous,
                    quality,
                    maxregcount,
                    // "PGI compilers gave a worst performance on both Fermi
                    // and Kepler when async was used": the clause is
                    // accepted but everything lands on one queue, with a
                    // little bookkeeping overhead.
                    async_stream: None,
                }
            }
            Compiler::Cray => {
                // "The execution time obtained while using PGI was lower
                // than that obtained with CRAY ... Our GPU CRAY
                // implementation can still be optimized though" — a flat
                // codegen-maturity penalty, larger for the conservative
                // kernels-construct mapping (Figures 8/9).
                let mut quality = match kind {
                    ConstructKind::Kernels => 1.55,
                    ConstructKind::Parallel => 1.18,
                };
                let mut vectorized = !(inner_seq_forced || explicit_inner_seq);
                let mut coalesced = vectorized && nest.innermost_contiguous;
                if kind == ConstructKind::Parallel && !explicit_inner_vector && vectorized {
                    // No explicit vector clause: the compiler "analyzes the
                    // j and k loops to determine which loop looks most
                    // profitable" — and does not always pick the contiguous
                    // one. Model the miss as a strided vector loop.
                    if nest.depth() >= 3 {
                        coalesced = false;
                        quality *= 1.08;
                    } else {
                        quality *= 1.05;
                    }
                }
                if matches!(nest.sched.last(), Some(LoopSched::Vector(len)) if *len > 0 && !len.is_power_of_two())
                {
                    // Odd vector lengths waste lanes at warp granularity.
                    quality *= 1.1;
                }
                if explicit_inner_seq {
                    vectorized = false;
                    coalesced = false;
                }
                KernelPlan {
                    vectorized,
                    coalesced,
                    quality,
                    maxregcount,
                    async_stream: async_req,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nest3() -> LoopNest {
        LoopNest::new(&[200, 200, 200])
    }

    /// The paper's headline compiler asymmetry: PGI prefers `kernels`,
    /// CRAY prefers explicit `parallel`.
    #[test]
    fn construct_preference_flips_between_compilers() {
        let nest =
            nest3().with_sched(&[LoopSched::Gang, LoopSched::Worker, LoopSched::Vector(128)]);
        let pgi = Compiler::Pgi(PgiVersion::V14_6);
        let pk = pgi.map(&nest, ConstructKind::Kernels, &[Clause::Independent], false);
        let pp = pgi.map(&nest, ConstructKind::Parallel, &[], false);
        assert!(pk.quality < pp.quality, "PGI: kernels must beat parallel");
        let cray = Compiler::Cray;
        let ck = cray.map(&nest, ConstructKind::Kernels, &[], false);
        let cp = cray.map(&nest, ConstructKind::Parallel, &[], false);
        assert!(cp.quality < ck.quality, "CRAY: parallel must beat kernels");
    }

    /// Figure 6/7: branchy bodies only hurt PGI 14.3 (CUDA 5.0 back-end).
    #[test]
    fn pgi_143_punishes_divergent_bodies() {
        let nest = nest3();
        let clauses = [Clause::Independent];
        let a = Compiler::Pgi(PgiVersion::V14_3).map(&nest, ConstructKind::Kernels, &clauses, true);
        let b = Compiler::Pgi(PgiVersion::V14_6).map(&nest, ConstructKind::Kernels, &clauses, true);
        assert!(a.quality > 1.3);
        assert!((b.quality - 1.0).abs() < 1e-9);
    }

    /// Explicit innermost vector clause fixes CRAY's loop-pick miss on 3D
    /// nests ("vectorizing the innermost loop explicitly improved mapping").
    #[test]
    fn cray_needs_explicit_vector_on_3d() {
        let auto = Compiler::Cray.map(&nest3(), ConstructKind::Parallel, &[], false);
        let explicit = Compiler::Cray.map(
            &nest3().with_sched(&[LoopSched::Gang, LoopSched::Auto, LoopSched::Vector(128)]),
            ConstructKind::Parallel,
            &[],
            false,
        );
        assert!(!auto.coalesced);
        assert!(explicit.coalesced);
        assert!(explicit.quality < auto.quality);
    }

    /// Loop-carried dependence forces a sequential inner loop unless the
    /// programmer asserts `independent` (the Figure 13 situation).
    #[test]
    fn dependence_blocks_vectorization() {
        let nest = LoopNest::new(&[1000, 1000]).with_dependence();
        for c in [Compiler::Pgi(PgiVersion::V14_6), Compiler::Cray] {
            let p = c.map(&nest, ConstructKind::Kernels, &[], false);
            assert!(!p.vectorized && !p.coalesced, "{c:?}");
            let forced = c.map(&nest, ConstructKind::Kernels, &[Clause::Independent], false);
            assert!(forced.vectorized, "{c:?} with independent");
        }
    }

    /// Only CRAY honors async queues.
    #[test]
    fn async_honored_by_cray_only() {
        let nest = nest3();
        let cray = Compiler::Cray.map(&nest, ConstructKind::Parallel, &[Clause::Async(3)], false);
        assert_eq!(cray.async_stream, Some(3));
        let pgi = Compiler::Pgi(PgiVersion::V14_6).map(
            &nest,
            ConstructKind::Kernels,
            &[Clause::Async(3)],
            false,
        );
        assert_eq!(pgi.async_stream, None);
    }

    #[test]
    fn maxregcount_passes_through() {
        let p = Compiler::Pgi(PgiVersion::V14_6).map(
            &nest3(),
            ConstructKind::Kernels,
            &[Clause::MaxRegCount(64)],
            false,
        );
        assert_eq!(p.maxregcount, Some(64));
    }

    /// Deep nests on PGI need `independent` or `collapse` to gridify.
    #[test]
    fn pgi_deep_nests_need_collapse_or_independent() {
        let pgi = Compiler::Pgi(PgiVersion::V14_6);
        let bare = pgi.map(&nest3(), ConstructKind::Kernels, &[], false);
        let collapsed = pgi.map(
            &nest3(),
            ConstructKind::Kernels,
            &[Clause::Collapse(2)],
            false,
        );
        let indep = pgi.map(
            &nest3(),
            ConstructKind::Kernels,
            &[Clause::Independent],
            false,
        );
        assert!(bare.quality > collapsed.quality);
        assert!((collapsed.quality - indep.quality).abs() < 1e-12);
        // 2D nests gridify fine without help.
        let flat = pgi.map(
            &LoopNest::new(&[512, 512]),
            ConstructKind::Kernels,
            &[],
            false,
        );
        assert!((flat.quality - 1.0).abs() < 1e-12);
    }

    #[test]
    fn old_pgi_is_uniformly_slower() {
        let old =
            Compiler::Pgi(PgiVersion::V13_7).map(&nest3(), ConstructKind::Kernels, &[], false);
        let new =
            Compiler::Pgi(PgiVersion::V14_6).map(&nest3(), ConstructKind::Kernels, &[], false);
        assert!(old.quality > new.quality);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = [
            Compiler::Pgi(PgiVersion::V13_7),
            Compiler::Pgi(PgiVersion::V14_3),
            Compiler::Pgi(PgiVersion::V14_6),
            Compiler::Cray,
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }
}
