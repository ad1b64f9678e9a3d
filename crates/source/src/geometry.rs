//! Acquisition geometry: shot and receiver positions on the interior grid.

/// A receiver location in a 2D grid (interior indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receiver2 {
    /// Interior x index.
    pub ix: usize,
    /// Interior z index.
    pub iz: usize,
}

/// A receiver location in a 3D grid (interior indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receiver3 {
    /// Interior x index.
    pub ix: usize,
    /// Interior y index.
    pub iy: usize,
    /// Interior z index.
    pub iz: usize,
}

/// One shot's acquisition layout in 2D: a point source and a line of
/// receivers (typically a surface cable at constant depth).
#[derive(Debug, Clone, PartialEq)]
pub struct Acquisition2 {
    /// Source x index.
    pub src_ix: usize,
    /// Source z index.
    pub src_iz: usize,
    /// Receiver positions.
    pub receivers: Vec<Receiver2>,
}

impl Acquisition2 {
    /// Surface acquisition: source at (`src_ix`, `src_iz`), receivers every
    /// `spacing` points along z = `rcv_iz`, spanning the interior width `nx`.
    pub fn surface_line(
        nx: usize,
        src_ix: usize,
        src_iz: usize,
        rcv_iz: usize,
        spacing: usize,
    ) -> Self {
        assert!(spacing >= 1, "receiver spacing must be >= 1");
        assert!(src_ix < nx, "source outside grid");
        let receivers = (0..nx)
            .step_by(spacing)
            .map(|ix| Receiver2 { ix, iz: rcv_iz })
            .collect();
        Self {
            src_ix,
            src_iz,
            receivers,
        }
    }

    /// Number of receivers.
    pub fn n_receivers(&self) -> usize {
        self.receivers.len()
    }
}

/// One shot's acquisition layout in 3D: point source and a rectangular
/// receiver grid at constant depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Acquisition3 {
    /// Source x index.
    pub src_ix: usize,
    /// Source y index.
    pub src_iy: usize,
    /// Source z index.
    pub src_iz: usize,
    /// Receiver positions.
    pub receivers: Vec<Receiver3>,
}

impl Acquisition3 {
    /// Surface patch: receivers every `spacing` points in x and y at depth
    /// `rcv_iz`.
    pub fn surface_patch(
        nx: usize,
        ny: usize,
        src: (usize, usize, usize),
        rcv_iz: usize,
        spacing: usize,
    ) -> Self {
        assert!(spacing >= 1);
        assert!(src.0 < nx && src.1 < ny);
        let mut receivers = Vec::new();
        for iy in (0..ny).step_by(spacing) {
            for ix in (0..nx).step_by(spacing) {
                receivers.push(Receiver3 { ix, iy, iz: rcv_iz });
            }
        }
        Self {
            src_ix: src.0,
            src_iy: src.1,
            src_iz: src.2,
            receivers,
        }
    }

    /// Number of receivers.
    pub fn n_receivers(&self) -> usize {
        self.receivers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_line_counts_and_positions() {
        let a = Acquisition2::surface_line(100, 50, 2, 1, 4);
        assert_eq!(a.n_receivers(), 25);
        assert_eq!(a.receivers[0], Receiver2 { ix: 0, iz: 1 });
        assert_eq!(a.receivers[24], Receiver2 { ix: 96, iz: 1 });
        assert_eq!(a.src_ix, 50);
    }

    #[test]
    fn spacing_one_covers_every_column() {
        let a = Acquisition2::surface_line(10, 5, 0, 0, 1);
        assert_eq!(a.n_receivers(), 10);
    }

    #[test]
    #[should_panic(expected = "source outside grid")]
    fn source_must_be_inside() {
        Acquisition2::surface_line(10, 10, 0, 0, 1);
    }

    #[test]
    fn surface_patch_is_rectangular() {
        let a = Acquisition3::surface_patch(20, 12, (10, 6, 3), 1, 4);
        assert_eq!(a.n_receivers(), 5 * 3);
        assert!(a.receivers.iter().all(|r| r.iz == 1));
        assert_eq!(a.src_iy, 6);
    }
}
