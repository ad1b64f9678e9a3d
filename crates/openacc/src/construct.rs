//! Compute constructs and loop-scheduling clauses.

/// The two OpenACC compute constructs (Section 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructKind {
    /// `!$acc kernels` — "produces a sequence of accelerator kernels, where
    /// each loop nest becomes a kernel"; the compiler owns the mapping.
    Kernels,
    /// `!$acc parallel` — gang-redundant unless loop directives distribute
    /// work; the programmer owns the mapping.
    Parallel,
}

/// Per-loop scheduling clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopSched {
    /// Distribute across gangs (thread blocks / SMs).
    Gang,
    /// Distribute across workers (warps).
    Worker,
    /// Map to vector lanes with the given length (0 = compiler default).
    Vector(u32),
    /// Execute sequentially inside each thread.
    Seq,
    /// Let the compiler decide.
    Auto,
}

/// Additional clauses on the construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// `collapse(n)` — fuse the n innermost loops into one iteration space.
    Collapse(u32),
    /// `independent` — assert no loop-carried dependences.
    Independent,
    /// `async(queue)` — issue on an async queue.
    Async(u32),
    /// Compiler flag `maxregcount:n` (PGI `-ta=nvidia,maxregcount:n`).
    MaxRegCount(u32),
}

/// A loop nest handed to a compute construct: sizes from outermost to
/// innermost, plus whether the innermost loop walks the contiguous axis.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// Iteration counts, outermost first (e.g. `[nz, ny, nx]`).
    pub sizes: Vec<u64>,
    /// True when the innermost loop strides by 1 in memory. The transposed
    /// acoustic-2D kernel of Figure 13 flips this from `false` to `true`.
    pub innermost_contiguous: bool,
    /// True when the innermost loop carries (or the compiler must assume it
    /// carries) a dependence — the paper's acoustic 2D backward kernel "is
    /// not parallelized due to loop carried dependencies".
    pub innermost_dependence: bool,
    /// Scheduling clause per loop (defaults to all-`Auto` when shorter).
    pub sched: Vec<LoopSched>,
}

impl LoopNest {
    /// A clean nest with `Auto` scheduling everywhere.
    pub fn new(sizes: &[u64]) -> Self {
        Self {
            sizes: sizes.to_vec(),
            innermost_contiguous: true,
            innermost_dependence: false,
            sched: vec![LoopSched::Auto; sizes.len()],
        }
    }

    /// Total iterations (grid points).
    pub fn points(&self) -> u64 {
        self.sizes.iter().product()
    }

    /// Number of nested loops.
    pub fn depth(&self) -> usize {
        self.sizes.len()
    }

    /// Builder: set per-loop schedules (outermost first).
    pub fn with_sched(mut self, sched: &[LoopSched]) -> Self {
        assert_eq!(sched.len(), self.sizes.len(), "one clause per loop");
        self.sched = sched.to_vec();
        self
    }

    /// Builder: mark the innermost loop non-contiguous (strided sweep).
    pub fn strided(mut self) -> Self {
        self.innermost_contiguous = false;
        self
    }

    /// Builder: mark an (apparent) innermost loop-carried dependence.
    pub fn with_dependence(mut self) -> Self {
        self.innermost_dependence = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nest_accessors() {
        let n = LoopNest::new(&[100, 200, 300]);
        assert_eq!(n.points(), 100 * 200 * 300);
        assert_eq!(n.depth(), 3);
        assert!(n.innermost_contiguous);
        assert!(!n.innermost_dependence);
    }

    #[test]
    fn builders_compose() {
        let n = LoopNest::new(&[64, 64])
            .with_sched(&[LoopSched::Gang, LoopSched::Vector(128)])
            .strided()
            .with_dependence();
        assert!(!n.innermost_contiguous);
        assert!(n.innermost_dependence);
        assert_eq!(n.sched[1], LoopSched::Vector(128));
    }

    #[test]
    #[should_panic(expected = "one clause per loop")]
    fn sched_arity_checked() {
        LoopNest::new(&[10, 10]).with_sched(&[LoopSched::Gang]);
    }
}
