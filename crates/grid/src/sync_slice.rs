//! Shared-mutable field views for slab-parallel kernels.
//!
//! Every propagator kernel updates grid points independently (leapfrog and
//! staggered updates read a point's neighbourhood from *other* fields and
//! write only that point, or read-then-write the same location). The
//! parallel executors (`openacc-sim` gangs, `mpi-sim` ranks-in-process)
//! therefore partition the interior z-range into disjoint slabs and run the
//! same kernel on each slab concurrently.
//!
//! [`SyncSlice`] is the narrow unsafe surface that makes this expressible:
//! a `Send + Sync` view of a `&mut [f32]` whose writes are unchecked-by-type
//! but governed by the documented contract — **concurrent users must write
//! disjoint index sets**. All kernels in `seismic-prop` uphold this by
//! construction (each slab writes only rows in its own z-range), and the
//! test-suite cross-checks parallel against sequential execution bit-for-bit.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A `Send + Sync` view over a mutable `f32` slice for slab-disjoint writes.
///
/// # Safety contract
///
/// * [`SyncSlice::set`] and [`SyncSlice::add`] are `unsafe`: callers must
///   guarantee no other thread concurrently reads or writes the same index.
/// * [`SyncSlice::get`] is safe **within the kernel discipline**: a slab only
///   reads indices that no concurrent slab writes (its own rows, or rows of
///   fields that are read-only during the current kernel phase).
#[derive(Clone, Copy)]
pub struct SyncSlice<'a> {
    ptr: *const UnsafeCell<f32>,
    len: usize,
    _marker: PhantomData<&'a mut [f32]>,
}

unsafe impl Send for SyncSlice<'_> {}
unsafe impl Sync for SyncSlice<'_> {}

impl<'a> SyncSlice<'a> {
    /// Wrap an exclusive slice. The borrow keeps the underlying field
    /// exclusively borrowed for the view's lifetime, so no *safe* alias can
    /// exist while slabs are running.
    pub fn new(slice: &'a mut [f32]) -> Self {
        let len = slice.len();
        let ptr = slice.as_mut_ptr() as *const UnsafeCell<f32>;
        Self {
            ptr,
            len,
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read index `i`.
    ///
    /// Bounds-checked in debug builds only — hot-kernel discipline.
    #[inline(always)]
    pub fn get(&self, i: usize) -> f32 {
        debug_assert!(i < self.len);
        unsafe { *(*self.ptr.add(i)).get() }
    }

    /// Write `v` to index `i`.
    ///
    /// # Safety
    /// No other thread may access index `i` concurrently.
    #[inline(always)]
    pub unsafe fn set(&self, i: usize, v: f32) {
        debug_assert!(i < self.len);
        *(*self.ptr.add(i)).get() = v;
    }

    /// Add `v` to index `i` (read-modify-write, same contract as `set`).
    ///
    /// # Safety
    /// No other thread may access index `i` concurrently.
    #[inline(always)]
    pub unsafe fn add(&self, i: usize, v: f32) {
        debug_assert!(i < self.len);
        let p = (*self.ptr.add(i)).get();
        *p += v;
    }

    /// Exclusive view of `[start, start + len)`, so a kernel can update a
    /// whole row as an ordinary slice. The range is bounds-checked in every
    /// build: it is taken once per row, not once per point.
    ///
    /// # Safety
    /// No other thread may access any index in the range, and no other view
    /// of it may be live, while the returned slice is in use.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, start: usize, len: usize) -> &mut [f32] {
        assert!(
            start <= self.len && len <= self.len - start,
            "range {start}+{len} out of bounds for length {}",
            self.len
        );
        // SAFETY: the range lies inside the wrapped slice (checked above);
        // exclusive access to it is the caller's contract.
        std::slice::from_raw_parts_mut(self.ptr.add(start) as *mut f32, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut v = vec![0.0f32; 8];
        let s = SyncSlice::new(&mut v);
        unsafe {
            s.set(3, 2.5);
            s.add(3, 0.5);
        }
        assert_eq!(s.get(3), 3.0);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(v[3], 3.0);
    }

    #[test]
    fn disjoint_parallel_writes_are_deterministic() {
        let n = 1024;
        let mut v = vec![0.0f32; n];
        let s = SyncSlice::new(&mut v);
        std::thread::scope(|scope| {
            for chunk in 0..4 {
                scope.spawn(move || {
                    let lo = chunk * n / 4;
                    let hi = (chunk + 1) * n / 4;
                    for i in lo..hi {
                        // Safety: each thread owns a disjoint index range.
                        unsafe { s.set(i, i as f32) };
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }

    #[test]
    fn range_mut_gangs_fill_disjoint_rows() {
        let (rows, cols) = (10, 7);
        let fill = |r: usize, c: usize| (r * 100 + c) as f32;
        let mut v = vec![0.0f32; rows * cols];
        let s = SyncSlice::new(&mut v);
        exec_host::par_slabs(rows, 2, |r0, r1| {
            for r in r0..r1 {
                // SAFETY: each gang owns the rows of its own slab.
                let row = unsafe { s.range_mut(r * cols, cols) };
                for (c, x) in row.iter_mut().enumerate() {
                    *x = fill(r, c);
                }
            }
        });
        let expect: Vec<f32> = (0..rows * cols).map(|i| fill(i / cols, i % cols)).collect();
        assert_eq!(v, expect);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_mut_rejects_overrun() {
        let mut v = vec![0.0f32; 8];
        let s = SyncSlice::new(&mut v);
        let _ = unsafe { s.range_mut(5, 4) };
    }
}
