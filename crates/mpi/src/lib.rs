//! # mpi-sim
//!
//! A message-passing runtime standing in for the paper's MPICH 3.1 baseline.
//!
//! The paper's reference implementation (Algorithm 1) is "based on domain
//! decomposition where each domain may be divided into sub-domains ...
//! Ghost nodes are exchanged via MPI non-blocking standard send (MPI_ISEND)
//! and receive (MPI_IRECV). When all required sends and receives are posted,
//! the communication request handles are then immediately checked for
//! completion via corresponding number of MPI_WAITANY calls."
//!
//! This crate provides exactly that API surface, executed for real:
//!
//! * [`comm`] — ranks as OS threads, [`comm::RankCtx::isend`] /
//!   [`comm::RankCtx::irecv`] / [`comm::RankCtx::wait_any`] over channels,
//!   carrying `Vec<f32>` payloads,
//! * [`decomp`] — 1-D slab domain decomposition along the slowest (z) axis
//!   with stencil-width ghost shells,
//! * [`halo`] — one ghost exchange over a field's raw z-planes, shared by
//!   2D and 3D fields,
//! * [`net`] — interconnect and CPU-socket *timing models* used by the
//!   Table 3/4 baseline predictions ("Aries"-class CRAY XC30 vs the older
//!   IBM cluster network, whose difference the paper blames for the CRAY
//!   speedups being lower).

pub mod comm;
pub mod decomp;
pub mod halo;
pub mod net;

pub use comm::{Communicator, RankCtx, Request};
pub use decomp::SlabDecomp;
pub use net::{CpuSpec, Interconnect};
