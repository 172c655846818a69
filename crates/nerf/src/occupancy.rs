//! Occupancy grid: the NeRF pipeline's built-in gating function.
//!
//! The occupancy grid stores one bit per cell of a coarse grid over
//! the normalized model cube. Stage I consults it to discard sample
//! points in empty space before Stages II/III ever see them. The paper
//! further observes (Sec. II-A, V-A) that the grid acts as a natural
//! *Mixture-of-Experts gating function* in the multi-chip system: a
//! chip whose expert has an empty cell contributes nothing for samples
//! in that cell, so expert outputs can be fused by simple addition.

use crate::math::Vec3;
use rand::Rng;

/// A cubical occupancy grid over `[0,1]^3`.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    resolution: u32,
    /// One bit per cell, X-major within Y within Z.
    bits: Vec<u64>,
    /// Exponential-moving-average density estimate per cell, updated
    /// by [`OccupancyGrid::update`].
    densities: Vec<f32>,
    threshold: f32,
}

impl OccupancyGrid {
    /// Creates an all-empty grid with `resolution^3` cells.
    ///
    /// `threshold` is the density above which a cell counts as
    /// occupied (Instant-NGP uses ~0.01 × grid diagonal steps).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero or the threshold is negative.
    pub fn new(resolution: u32, threshold: f32) -> Self {
        Self::try_new(resolution, threshold)
            // lint: allow(p1, p2): the documented `# Panics` contract of this constructor
            .expect("occupancy resolution must be positive and threshold non-negative")
    }

    /// [`OccupancyGrid::new`] for sizes that come from outside the
    /// program: returns `None` instead of panicking when `resolution`
    /// is zero, the threshold is negative or NaN, the cell count
    /// overflows `usize`, or the allocator refuses the cell buffers.
    pub fn try_new(resolution: u32, threshold: f32) -> Option<Self> {
        if resolution == 0 || threshold.is_nan() || threshold < 0.0 {
            return None;
        }
        let cells = (resolution as usize).checked_pow(3)?;
        let mut bits = Vec::new();
        bits.try_reserve_exact(cells.div_ceil(64)).ok()?;
        bits.resize(cells.div_ceil(64), 0);
        let mut densities = Vec::new();
        densities.try_reserve_exact(cells).ok()?;
        densities.resize(cells, 0.0);
        Some(OccupancyGrid { resolution, bits, densities, threshold })
    }

    /// Grid resolution per axis.
    #[inline]
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.resolution as usize).pow(3)
    }

    /// The occupancy threshold.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The linear index of the cell containing `p`, or `None` when `p`
    /// lies outside `[0,1]^3`.
    #[inline]
    pub fn cell_index(&self, p: Vec3) -> Option<usize> {
        if !(0.0..=1.0).contains(&p.x) || !(0.0..=1.0).contains(&p.y) || !(0.0..=1.0).contains(&p.z)
        {
            return None;
        }
        let r = self.resolution;
        let to_cell = |v: f32| ((v * r as f32) as u32).min(r - 1);
        let (x, y, z) = (to_cell(p.x), to_cell(p.y), to_cell(p.z));
        Some((x + r * (y + r * z)) as usize)
    }

    /// The center of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn cell_center(&self, index: usize) -> Vec3 {
        assert!(index < self.cell_count(), "cell index out of range");
        let r = self.resolution as usize;
        let x = index % r;
        let y = (index / r) % r;
        let z = index / (r * r);
        let inv = 1.0 / self.resolution as f32;
        Vec3::new((x as f32 + 0.5) * inv, (y as f32 + 0.5) * inv, (z as f32 + 0.5) * inv)
    }

    /// The side length of a cell.
    #[inline]
    pub fn cell_size(&self) -> f32 {
        1.0 / self.resolution as f32
    }

    /// Whether cell `index` is occupied.
    #[inline]
    pub fn is_cell_occupied(&self, index: usize) -> bool {
        debug_assert!(index / 64 < self.bits.len(), "cell index out of range");
        (self.bits[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Whether the cell containing `p` is occupied. Points outside the
    /// model cube are never occupied.
    #[inline]
    pub fn is_occupied(&self, p: Vec3) -> bool {
        self.cell_index(p).is_some_and(|i| self.is_cell_occupied(i))
    }

    /// Sets the occupancy bit for a cell.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_cell(&mut self, index: usize, occupied: bool) {
        assert!(index < self.cell_count(), "cell index out of range");
        if occupied {
            self.bits[index / 64] |= 1 << (index % 64);
        } else {
            self.bits[index / 64] &= !(1 << (index % 64));
        }
    }

    /// Marks every cell occupied — the state at the start of training,
    /// before any density estimates exist.
    pub fn fill(&mut self) {
        let cells = self.cell_count();
        for (i, word) in self.bits.iter_mut().enumerate() {
            let remaining = cells - (i * 64).min(cells);
            *word = if remaining >= 64 { u64::MAX } else { (1u64 << remaining) - 1 };
        }
    }

    /// Fraction of cells currently occupied.
    pub fn occupancy_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.cell_count() as f64
    }

    /// Iterates over the indices of occupied cells.
    pub fn occupied_cells(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cell_count()).filter(move |&i| self.is_cell_occupied(i))
    }

    /// Refreshes the grid from a density field: each cell's EMA
    /// density is decayed by `decay` and raised to the density sampled
    /// at a jittered point inside the cell, then thresholded. This is
    /// Instant-NGP's periodic occupancy-grid update (run every few
    /// training iterations).
    pub fn update<F, R>(&mut self, density: F, decay: f32, rng: &mut R)
    where
        F: Fn(Vec3) -> f32,
        R: Rng,
    {
        let size = self.cell_size();
        for i in 0..self.cell_count() {
            let jitter = Vec3::new(
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
            ) * size;
            let p = (self.cell_center(i) + jitter).clamp(0.0, 1.0);
            let d = density(p);
            self.densities[i] = (self.densities[i] * decay).max(d);
            self.set_cell(i, self.densities[i] > self.threshold);
        }
    }

    /// The ray parameter at which a ray leaves the grid cell
    /// containing `ray.at(t)`, used by the sampler to skip across
    /// empty cells in one step (DDA traversal).
    ///
    /// Returns a value strictly greater than `t`. If the point lies
    /// outside the grid or the direction is zero, returns `t` plus one
    /// cell size as a safe fallback.
    pub fn cell_exit_t(&self, ray: &crate::math::Ray, t: f32) -> f32 {
        let p = ray.at(t);
        let size = self.cell_size();
        if self.cell_index(p).is_none() {
            return t + size;
        }
        let r = self.resolution as f32;
        let mut exit = f32::INFINITY;
        for axis in 0..3 {
            let d = ray.direction[axis];
            if d == 0.0 {
                continue;
            }
            let coord = p[axis] * r;
            let boundary = if d > 0.0 { coord.floor() + 1.0 } else { coord.ceil() - 1.0 };
            let t_axis = t + (boundary / r - p[axis]) / d;
            if t_axis > t {
                exit = exit.min(t_axis);
            }
        }
        if exit.is_finite() && exit > t {
            exit
        } else {
            t + size
        }
    }

    /// Builds the grid directly from a boolean occupancy oracle, used
    /// to derive ground-truth grids from procedural scenes. Each cell
    /// is tested at its center and the eight half-offset corners.
    pub fn from_oracle<F>(resolution: u32, threshold: f32, occupied: F) -> Self
    where
        F: Fn(Vec3) -> bool,
    {
        let mut grid = OccupancyGrid::new(resolution, threshold);
        let size = grid.cell_size();
        for i in 0..grid.cell_count() {
            let c = grid.cell_center(i);
            let hit = occupied(c)
                || (0..8).any(|k| {
                    let off = Vec3::new(
                        if k & 1 == 0 { -0.45 } else { 0.45 },
                        if k & 2 == 0 { -0.45 } else { 0.45 },
                        if k & 4 == 0 { -0.45 } else { 0.45 },
                    ) * size;
                    occupied((c + off).clamp(0.0, 1.0))
                });
            grid.set_cell(i, hit);
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn new_grid_is_empty() {
        let g = OccupancyGrid::new(8, 0.01);
        assert_eq!(g.cell_count(), 512);
        assert_eq!(g.occupancy_ratio(), 0.0);
        assert!(!g.is_occupied(Vec3::splat(0.5)));
    }

    #[test]
    fn try_new_refuses_unbuildable_grids() {
        assert!(OccupancyGrid::try_new(0, 0.0).is_none());
        assert!(OccupancyGrid::try_new(8, -1.0).is_none());
        assert!(OccupancyGrid::try_new(8, f32::NAN).is_none());
        // u32::MAX³ cells overflow any 64-bit size.
        assert!(OccupancyGrid::try_new(u32::MAX, 0.0).is_none());
        let g = OccupancyGrid::try_new(8, 0.01).expect("valid grid");
        assert_eq!((g.resolution(), g.cell_count(), g.threshold()), (8, 512, 0.01));
        assert_eq!(g.occupancy_ratio(), 0.0);
    }

    #[test]
    fn fill_sets_every_cell() {
        let mut g = OccupancyGrid::new(5, 0.01); // 125 cells, not a multiple of 64
        g.fill();
        assert_eq!(g.occupancy_ratio(), 1.0);
        assert_eq!(g.occupied_cells().count(), 125);
    }

    #[test]
    fn set_and_query_round_trip() {
        let mut g = OccupancyGrid::new(4, 0.0);
        let p = Vec3::new(0.9, 0.1, 0.4);
        let idx = g.cell_index(p).unwrap();
        assert!(!g.is_occupied(p));
        g.set_cell(idx, true);
        assert!(g.is_occupied(p));
        g.set_cell(idx, false);
        assert!(!g.is_occupied(p));
    }

    #[test]
    fn points_outside_cube_are_never_occupied() {
        let mut g = OccupancyGrid::new(4, 0.0);
        g.fill();
        assert!(g.cell_index(Vec3::new(-0.1, 0.5, 0.5)).is_none());
        assert!(g.cell_index(Vec3::new(0.5, 1.1, 0.5)).is_none());
        assert!(!g.is_occupied(Vec3::splat(2.0)));
        // Boundary points belong to the cube.
        assert!(g.is_occupied(Vec3::ZERO));
        assert!(g.is_occupied(Vec3::ONE));
    }

    #[test]
    fn cell_center_round_trips_through_index() {
        let g = OccupancyGrid::new(6, 0.0);
        for i in [0, 1, 7, 35, 100, 215] {
            let c = g.cell_center(i);
            assert_eq!(g.cell_index(c), Some(i), "center of cell {i} maps back");
        }
    }

    #[test]
    fn update_marks_dense_region() {
        let mut g = OccupancyGrid::new(8, 0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        // Density 10 inside a central ball of radius 0.25, zero outside.
        let density = |p: Vec3| {
            if p.distance(Vec3::splat(0.5)) < 0.25 {
                10.0
            } else {
                0.0
            }
        };
        g.update(density, 0.95, &mut rng);
        assert!(g.is_occupied(Vec3::splat(0.5)), "ball center occupied");
        assert!(!g.is_occupied(Vec3::new(0.05, 0.05, 0.05)), "corner empty");
        let ratio = g.occupancy_ratio();
        assert!(ratio > 0.01 && ratio < 0.35, "ratio {ratio} out of range");
    }

    #[test]
    fn update_decay_eventually_clears_cells() {
        let mut g = OccupancyGrid::new(4, 0.5);
        let mut rng = SmallRng::seed_from_u64(2);
        g.update(|_| 10.0, 0.5, &mut rng);
        assert_eq!(g.occupancy_ratio(), 1.0);
        // Density source disappears; EMA decays below threshold.
        for _ in 0..10 {
            g.update(|_| 0.0, 0.5, &mut rng);
        }
        assert_eq!(g.occupancy_ratio(), 0.0);
    }

    #[test]
    fn oracle_construction() {
        let g = OccupancyGrid::from_oracle(16, 0.0, |p| p.x < 0.5);
        assert!(g.is_occupied(Vec3::new(0.1, 0.5, 0.5)));
        assert!(!g.is_occupied(Vec3::new(0.9, 0.5, 0.5)));
        // Roughly half the cells are occupied (boundary cells inflate
        // the count slightly because corners are also tested).
        let r = g.occupancy_ratio();
        assert!(r > 0.45 && r < 0.65, "ratio {r}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_cell_rejects_out_of_range() {
        let mut g = OccupancyGrid::new(2, 0.0);
        g.set_cell(8, true);
    }
}
