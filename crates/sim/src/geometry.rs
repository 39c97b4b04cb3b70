//! Planar geometry for node placement and mobility.

use std::fmt;

/// A point (or vector) in the 2-D simulation plane, in metres.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Easting, metres.
    pub x: f64,
    /// Northing, metres.
    pub y: f64,
}

impl Position {
    /// Constructs a position from metre coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, in metres.
    ///
    /// ```
    /// use manet_sim::geometry::Position;
    /// let a = Position::new(0.0, 0.0);
    /// let b = Position::new(3.0, 4.0);
    /// assert_eq!(a.distance(b), 5.0);
    /// ```
    pub fn distance(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared distance (avoids the square root for range tests).
    pub fn distance_sq(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: the point a fraction `f` of the way from
    /// `self` to `to` (`f` is clamped to `[0, 1]`).
    pub fn lerp(self, to: Position, f: f64) -> Position {
        let f = f.clamp(0.0, 1.0);
        Position::new(self.x + (to.x - self.x) * f, self.y + (to.y - self.y) * f)
    }
}

impl fmt::Debug for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// The rectangular terrain nodes move within: `[0, width] × [0, height]`
/// metres, matching the paper's 1500 m × 300 m and 2200 m × 600 m fields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Terrain {
    /// Width in metres (x extent).
    pub width: f64,
    /// Height in metres (y extent).
    pub height: f64,
}

impl Terrain {
    /// Constructs a terrain rectangle.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width.is_finite() && width > 0.0, "bad terrain width {width}");
        assert!(height.is_finite() && height > 0.0, "bad terrain height {height}");
        Terrain { width, height }
    }

    /// Whether a position lies within the terrain (inclusive edges).
    pub fn contains(&self, p: Position) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// A uniformly random position inside the terrain.
    pub fn random_position(&self, rng: &mut crate::rng::SimRng) -> Position {
        Position::new(rng.range_f64(0.0, self.width), rng.range_f64(0.0, self.height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn distance_and_square() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert_eq!((mid.x, mid.y), (5.0, 10.0));
        // Clamped outside [0, 1].
        assert_eq!(a.lerp(b, 2.0), b);
        assert_eq!(a.lerp(b, -1.0), a);
    }

    #[test]
    fn terrain_contains_and_random() {
        let t = Terrain::new(1500.0, 300.0);
        assert!(t.contains(Position::new(0.0, 0.0)));
        assert!(t.contains(Position::new(1500.0, 300.0)));
        assert!(!t.contains(Position::new(1500.1, 0.0)));
        assert!(!t.contains(Position::new(0.0, -0.1)));
        let mut rng = SimRng::from_seed(1);
        for _ in 0..1000 {
            assert!(t.contains(t.random_position(&mut rng)));
        }
    }

    #[test]
    #[should_panic]
    fn terrain_rejects_zero_width() {
        Terrain::new(0.0, 10.0);
    }
}
