//! Declared per-kernel access patterns.
//!
//! OpenACC directives are *claims*: `independent` claims no iteration of
//! the parallelized loop touches an element another iteration writes,
//! `async` claims no other queue is working on the same data, and the data
//! clauses claim host/device coherence. The compiler trusts all of them.
//! To make those claims checkable, every kernel declares its memory
//! footprint as a set of affine references `array[offset + stride·i]` over
//! the linearized iteration index `i ∈ [0, trip)`. The `acc-verify` crate
//! runs dependence, data-environment, and async-hazard analyses over these
//! declarations; the Tier-2 sanitizer in [`crate::exec`] replays them on
//! small grids to confirm or refute the static verdicts.

/// One affine reference: the element `offset + stride·i` of a named array,
/// touched once per iteration `i` of the declared loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineAccess {
    /// Name of the accessed array (a data-environment mapping name).
    pub array: String,
    /// Constant element offset (sub-field base within a mapped block).
    pub offset: i64,
    /// Elements advanced per iteration (0 = every iteration hits the same
    /// element, 1 = unit stride, `row` = strided sweep).
    pub stride: i64,
}

impl AffineAccess {
    /// A new reference.
    pub fn new(array: impl Into<String>, offset: i64, stride: i64) -> Self {
        Self {
            array: array.into(),
            offset,
            stride,
        }
    }

    /// Element touched at iteration `i`.
    pub fn at(&self, i: u64) -> i64 {
        self.offset + self.stride * i as i64
    }

    /// Inclusive element range touched over `trip` iterations, or `None`
    /// for an empty loop.
    pub fn extent(&self, trip: u64) -> Option<(i64, i64)> {
        if trip == 0 {
            return None;
        }
        let last = self.at(trip - 1);
        Some((self.offset.min(last), self.offset.max(last)))
    }
}

/// The combining operator of a declared reduction.
///
/// Only the operators the propagator kernels actually use are modeled.
/// `Sum` and `Prod` are floating-point non-associative under rounding, so
/// vectorizing them reassociates the combine tree; `Min`/`Max` are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `reduction(+:x)` — FP addition, reassociation changes rounding.
    Sum,
    /// `reduction(*:x)` — FP multiplication, reassociation changes rounding.
    Prod,
    /// `reduction(min:x)` — exact under any association.
    Min,
    /// `reduction(max:x)` — exact under any association.
    Max,
}

impl ReduceOp {
    /// Does reassociating this operator change the rounded result?
    pub fn reassociation_sensitive(self) -> bool {
        matches!(self, ReduceOp::Sum | ReduceOp::Prod)
    }

    /// The OpenACC clause spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            ReduceOp::Sum => "+",
            ReduceOp::Prod => "*",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }
}

/// A declared `reduction(op:array[offset])` cell: every iteration combines
/// into the same element through `op`. Unlike a plain stride-0 write this
/// is *not* a race — the runtime gives each lane/gang a private partial
/// and combines them — but vectorizing it reassociates the combine order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionAccess {
    /// Name of the accumulated array (a data-environment mapping name).
    pub array: String,
    /// Element the reduction lands in.
    pub offset: i64,
    /// Combining operator.
    pub op: ReduceOp,
}

/// The declared read/write footprint of one kernel launch over a
/// linearized iteration space of `trip` iterations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// Iterations of the (parallelized) loop the references range over.
    pub trip: u64,
    /// Elements read each iteration.
    pub reads: Vec<AffineAccess>,
    /// Elements written each iteration.
    pub writes: Vec<AffineAccess>,
    /// Declared reduction cells combined into each iteration.
    pub reductions: Vec<ReductionAccess>,
}

impl AccessSet {
    /// An empty footprint over `trip` iterations.
    pub fn new(trip: u64) -> Self {
        Self {
            trip,
            reads: Vec::new(),
            writes: Vec::new(),
            reductions: Vec::new(),
        }
    }

    /// Builder: add a read reference.
    pub fn read(mut self, array: impl Into<String>, offset: i64, stride: i64) -> Self {
        self.reads.push(AffineAccess::new(array, offset, stride));
        self
    }

    /// Builder: add a write reference.
    pub fn write(mut self, array: impl Into<String>, offset: i64, stride: i64) -> Self {
        self.writes.push(AffineAccess::new(array, offset, stride));
        self
    }

    /// Builder: declare a reduction cell.
    pub fn reduce(mut self, array: impl Into<String>, offset: i64, op: ReduceOp) -> Self {
        self.reductions.push(ReductionAccess {
            array: array.into(),
            offset,
            op,
        });
        self
    }

    /// A correct out-of-place stencil: writes `out[base_out + i]`, reads
    /// `inp[base_in + i ± k]` and `inp[base_in + i ± k·row]` for
    /// `k ≤ halo` — the FD star of the propagator kernels. Writes and
    /// reads target different sub-fields, so the loop is truly
    /// `independent`.
    pub fn stencil(
        trip: u64,
        array: impl Into<String>,
        base_out: i64,
        base_in: i64,
        halo: i64,
        row: i64,
    ) -> Self {
        let array = array.into();
        let mut s = Self::new(trip).write(array.clone(), base_out, 1);
        s.reads.push(AffineAccess::new(array.clone(), base_in, 1));
        for k in 1..=halo {
            for d in [k, -k, k * row, -(k * row)] {
                s.reads
                    .push(AffineAccess::new(array.clone(), base_in + d, 1));
            }
        }
        s
    }

    /// An *in-place* stencil: same as [`AccessSet::stencil`] but reading
    /// and writing the same sub-field — the classic false-`independent`
    /// mutation (iteration `i` reads elements iteration `i ± k` writes).
    pub fn stencil_inplace(
        trip: u64,
        array: impl Into<String>,
        base: i64,
        halo: i64,
        row: i64,
    ) -> Self {
        Self::stencil(trip, array, base, base, halo, row)
    }

    /// Every array name referenced, deduplicated. Reduction cells count:
    /// the combine both reads and writes its landing element.
    pub fn arrays(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .reads
            .iter()
            .chain(self.writes.iter())
            .map(|a| a.array.as_str())
            .chain(self.reductions.iter().map(|r| r.array.as_str()))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Arrays written, deduplicated. A reduction writes its landing cell.
    pub fn written_arrays(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .writes
            .iter()
            .map(|a| a.array.as_str())
            .chain(self.reductions.iter().map(|r| r.array.as_str()))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_at_and_extent() {
        let a = AffineAccess::new("u", 10, 2);
        assert_eq!(a.at(0), 10);
        assert_eq!(a.at(5), 20);
        assert_eq!(a.extent(6), Some((10, 20)));
        assert_eq!(a.extent(0), None);
        let neg = AffineAccess::new("u", 0, -3);
        assert_eq!(neg.extent(4), Some((-9, 0)));
    }

    #[test]
    fn stencil_reads_cover_star() {
        let s = AccessSet::stencil(100, "fields", 1000, 0, 4, 50);
        assert_eq!(s.writes.len(), 1);
        // Centre + 4 taps per direction per axis.
        assert_eq!(s.reads.len(), 1 + 4 * 4);
        assert_eq!(s.arrays(), vec!["fields"]);
        assert_eq!(s.writes[0].extent(s.trip), Some((1000, 1099)));
        // Reads stay below the write base: out-of-place.
        let (lo, hi) = read_extent(&s);
        assert_eq!(lo, -4 * 50);
        assert_eq!(hi, 99 + 4 * 50);
    }

    fn read_extent(s: &AccessSet) -> (i64, i64) {
        s.reads
            .iter()
            .filter_map(|a| a.extent(s.trip))
            .reduce(|(l1, h1), (l2, h2)| (l1.min(l2), h1.max(h2)))
            .unwrap()
    }

    #[test]
    fn inplace_overlaps_itself() {
        let s = AccessSet::stencil_inplace(100, "u", 0, 2, 10);
        let w = s.writes[0].extent(s.trip).unwrap();
        let r = read_extent(&s);
        assert!(w.0 <= r.1 && r.0 <= w.1, "in-place ranges must overlap");
    }

    #[test]
    fn reductions_count_as_writes_in_footprints() {
        let s = AccessSet::new(64)
            .read("u", 0, 1)
            .reduce("qc", 5, ReduceOp::Sum);
        assert_eq!(s.arrays(), vec!["qc", "u"]);
        assert_eq!(s.written_arrays(), vec!["qc"]);
        assert!(ReduceOp::Sum.reassociation_sensitive());
        assert!(!ReduceOp::Max.reassociation_sensitive());
        assert_eq!(ReduceOp::Sum.symbol(), "+");
    }
}
