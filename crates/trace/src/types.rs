//! Strongly-typed primitives used throughout the workspace.
//!
//! Newtypes keep byte counts, document identifiers and timestamps from being
//! mixed up in the large parameter lists that trace-driven simulation tends
//! to produce.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Identifier of a distinct web document (a canonicalized URL).
///
/// Identifiers are dense `u64`s assigned by the trace producer (the Squid
/// parser interns URLs; the synthetic generator numbers its population).
///
/// ```
/// use webcache_trace::DocId;
/// let id = DocId::new(7);
/// assert_eq!(id.as_u64(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DocId(u64);

impl DocId {
    /// Creates a document identifier from a raw index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        DocId(raw)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

impl From<u64> for DocId {
    fn from(raw: u64) -> Self {
        DocId(raw)
    }
}

/// A size or amount of data in bytes.
///
/// Supports saturating arithmetic through the standard operator traits and
/// human-readable display:
///
/// ```
/// use webcache_trace::ByteSize;
/// let a = ByteSize::new(1024);
/// let b = ByteSize::from_kib(1);
/// assert_eq!(a, b);
/// assert_eq!((a + b).as_u64(), 2048);
/// assert_eq!(ByteSize::from_mib(3).to_string(), "3.00 MiB");
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a byte size from a raw byte count.
    #[inline]
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a byte size from kibibytes (1024 bytes).
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * 1024)
    }

    /// Creates a byte size from mebibytes.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// Creates a byte size from gibibytes.
    #[inline]
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize(gib * 1024 * 1024 * 1024)
    }

    /// Returns the raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the size as a floating point byte count (for statistics).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns the size in kibibytes as a float.
    #[inline]
    pub fn as_kib(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Returns the size in gibibytes as a float.
    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the size by a non-negative scale factor, rounding to the
    /// nearest byte.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> ByteSize {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        ByteSize((self.0 as f64 * factor).round() as u64)
    }

    /// `fraction` of this size (a trace's overall size) as a capacity:
    /// rounded to the nearest byte, at least one. The one such rule.
    #[must_use]
    pub fn fraction(self, fraction: f64) -> ByteSize {
        ByteSize((self.0 as f64 * fraction).round().max(1.0) as u64)
    }

    /// Returns true if this is zero bytes.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: f64 = 1024.0;
        const MIB: f64 = 1024.0 * 1024.0;
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let b = self.0 as f64;
        if b >= GIB {
            write!(f, "{:.2} GiB", b / GIB)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b / MIB)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b / KIB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for ByteSize {
    #[inline]
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |acc, x| acc + x)
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> Self {
        ByteSize(bytes)
    }
}

/// A point in (trace) time, stored with millisecond resolution.
///
/// Only ordering and differences matter to the simulator; the origin is
/// whatever the trace producer chose.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (trace origin).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from milliseconds since the trace origin.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Creates a timestamp from whole seconds since the trace origin.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1000)
    }

    /// Milliseconds since the trace origin.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the trace origin, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Milliseconds elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn millis_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}s", self.0 / 1000, self.0 % 1000)
    }
}

impl From<u64> for Timestamp {
    fn from(ms: u64) -> Self {
        Timestamp(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_id_roundtrip() {
        assert_eq!(DocId::new(99).as_u64(), 99);
        assert_eq!(DocId::from(5), DocId::new(5));
        assert_eq!(DocId::new(3).to_string(), "doc#3");
    }

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::from_kib(2).as_u64(), 2048);
        assert_eq!(ByteSize::from_mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::from_gib(1).as_u64(), 1 << 30);
    }

    #[test]
    fn byte_size_arithmetic_saturates() {
        let a = ByteSize::new(10);
        let b = ByteSize::new(30);
        assert_eq!((b - a).as_u64(), 20);
        assert_eq!((a - b).as_u64(), 0, "subtraction saturates at zero");
        assert_eq!(
            ByteSize::new(u64::MAX) + ByteSize::new(1),
            ByteSize::new(u64::MAX)
        );
    }

    #[test]
    fn byte_size_sum() {
        let total: ByteSize = (1..=4u64).map(ByteSize::new).sum();
        assert_eq!(total.as_u64(), 10);
    }

    #[test]
    fn byte_size_display_units() {
        assert_eq!(ByteSize::new(512).to_string(), "512 B");
        assert_eq!(ByteSize::from_kib(1).to_string(), "1.00 KiB");
        assert_eq!(ByteSize::from_mib(5).to_string(), "5.00 MiB");
        assert_eq!(ByteSize::from_gib(2).to_string(), "2.00 GiB");
    }

    #[test]
    fn byte_size_scale_rounds() {
        assert_eq!(ByteSize::new(100).scale(0.5).as_u64(), 50);
        assert_eq!(ByteSize::new(3).scale(0.5).as_u64(), 2, "1.5 rounds to 2");
        assert_eq!(ByteSize::new(100).scale(0.0).as_u64(), 0);
    }

    #[test]
    fn byte_size_fraction_rounds_to_at_least_one_byte() {
        assert_eq!(ByteSize::new(1_000).fraction(0.005).as_u64(), 5);
        assert_eq!(
            ByteSize::new(30).fraction(0.05).as_u64(),
            2,
            "1.5 rounds to 2"
        );
        assert_eq!(ByteSize::new(10).fraction(0.01).as_u64(), 1);
        assert_eq!(ByteSize::ZERO.fraction(0.4).as_u64(), 1);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn byte_size_scale_rejects_negative() {
        let _ = ByteSize::new(1).scale(-1.0);
    }

    #[test]
    fn timestamp_conversions() {
        let t = Timestamp::from_secs(2);
        assert_eq!(t.as_millis(), 2000);
        assert_eq!(t.as_secs_f64(), 2.0);
        assert_eq!(t.to_string(), "2.000s");
        assert_eq!(Timestamp::from_millis(2500).millis_since(t), 500);
        assert_eq!(t.millis_since(Timestamp::from_millis(9000)), 0);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(ByteSize::new(1) < ByteSize::new(2));
        assert!(Timestamp::from_millis(1) < Timestamp::from_millis(2));
        assert!(DocId::new(1) < DocId::new(2));
    }
}
