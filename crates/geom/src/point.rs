//! Points in `D` dimensions.

use crate::{Coord, Rect};
use serde::de::{Error as DeError, SeqAccess, Visitor};
use serde::ser::SerializeSeq;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::ops::Index;

/// A location in `D`-dimensional space.
///
/// Event data items (paper §2.2) are points in all dimensions; a point is
/// indexed as the degenerate rectangle returned by [`Point::to_rect`].
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const D: usize> {
    coords: [Coord; D],
}

// Serde cannot derive (De)Serialize for const-generic arrays, so a Point is
// encoded as the sequence of its coordinates.
impl<const D: usize> Serialize for Point<D> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(D))?;
        for v in &self.coords {
            seq.serialize_element(v)?;
        }
        seq.end()
    }
}

impl<'de, const D: usize> Deserialize<'de> for Point<D> {
    fn deserialize<De: Deserializer<'de>>(deserializer: De) -> Result<Self, De::Error> {
        struct PointVisitor<const D: usize>;

        impl<'de, const D: usize> Visitor<'de> for PointVisitor<D> {
            type Value = Point<D>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "a sequence of {D} floats")
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Point<D>, A::Error> {
                let mut coords = [0.0; D];
                for (i, slot) in coords.iter_mut().enumerate() {
                    *slot = seq
                        .next_element()?
                        .ok_or_else(|| A::Error::invalid_length(i, &self))?;
                }
                Ok(Point::new(coords))
            }
        }

        deserializer.deserialize_seq(PointVisitor)
    }
}

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(coords: [Coord; D]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    #[inline]
    pub fn origin() -> Self {
        Self { coords: [0.0; D] }
    }

    /// Coordinate in dimension `d`.
    #[inline]
    pub fn coord(&self, d: usize) -> Coord {
        self.coords[d]
    }

    /// All coordinates.
    #[inline]
    pub fn coords(&self) -> &[Coord; D] {
        &self.coords
    }

    /// The degenerate rectangle `[p, p]` in every dimension.
    #[inline]
    pub fn to_rect(self) -> Rect<D> {
        Rect::new(self.coords, self.coords)
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = Coord;

    #[inline]
    fn index(&self, d: usize) -> &Coord {
        &self.coords[d]
    }
}

impl<const D: usize> From<[Coord; D]> for Point<D> {
    #[inline]
    fn from(coords: [Coord; D]) -> Self {
        Self { coords }
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_rect_is_degenerate() {
        let p = Point::new([1.0, 2.0]);
        let r = p.to_rect();
        assert!(r.is_point());
        assert!(r.contains_point(&p));
        assert_eq!(r.area(), 0.0);
    }

    #[test]
    fn indexing() {
        let p = Point::new([7.0, 9.0, 11.0]);
        assert_eq!(p[0], 7.0);
        assert_eq!(p.coord(2), 11.0);
    }
}
