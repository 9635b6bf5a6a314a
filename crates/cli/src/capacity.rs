//! Human-friendly cache-capacity parsing.

use webcache_trace::ByteSize;

/// A capacity specification: absolute bytes or a fraction of the
/// workload's overall size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacitySpec {
    /// An absolute byte count.
    Bytes(ByteSize),
    /// A fraction in `(0, 1]` of the trace's overall size.
    FractionOfTrace(f64),
}

impl CapacitySpec {
    /// Resolves the specification against a trace's overall size.
    pub fn resolve(self, overall: ByteSize) -> ByteSize {
        match self {
            CapacitySpec::Bytes(b) => b,
            CapacitySpec::FractionOfTrace(f) => overall.fraction(f),
        }
    }
}

/// Parses a capacity string: raw bytes (`1048576`), binary units
/// (`64KiB`, `32MiB`, `2GiB`, case-insensitive, `KB`/`MB`/`GB` accepted
/// as synonyms), or a percentage of the trace (`5%`, `0.5%`).
///
/// # Errors
///
/// Returns a human-readable message for malformed input.
///
/// ```
/// use webcache_cli::parse_capacity;
/// use webcache_cli::capacity::CapacitySpec;
/// use webcache_trace::ByteSize;
///
/// assert_eq!(
///     parse_capacity("64KiB").unwrap(),
///     CapacitySpec::Bytes(ByteSize::from_kib(64))
/// );
/// assert_eq!(
///     parse_capacity("5%").unwrap(),
///     CapacitySpec::FractionOfTrace(0.05)
/// );
/// ```
pub fn parse_capacity(raw: &str) -> Result<CapacitySpec, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err("empty capacity".to_owned());
    }
    if let Some(pct) = raw.strip_suffix('%') {
        let value: f64 = pct
            .trim()
            .parse()
            .map_err(|_| format!("bad percentage `{raw}`"))?;
        // A subnormal percentage divides down to a zero fraction.
        let fraction = value / 100.0;
        if !(fraction > 0.0 && value <= 100.0) {
            return Err(format!("percentage must be in (0, 100], got `{raw}`"));
        }
        return Ok(CapacitySpec::FractionOfTrace(fraction));
    }

    let lower = raw.to_ascii_lowercase();
    let (digits, multiplier) =
        if let Some(d) = lower.strip_suffix("kib").or(lower.strip_suffix("kb")) {
            (d, 1024u64)
        } else if let Some(d) = lower.strip_suffix("mib").or(lower.strip_suffix("mb")) {
            (d, 1024 * 1024)
        } else if let Some(d) = lower.strip_suffix("gib").or(lower.strip_suffix("gb")) {
            (d, 1024 * 1024 * 1024)
        } else if let Some(d) = lower.strip_suffix('b') {
            (d, 1)
        } else {
            (lower.as_str(), 1)
        };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad capacity `{raw}`"))?;
    if value.is_nan() || value <= 0.0 {
        return Err(format!("capacity must be positive, got `{raw}`"));
    }
    // A byte count that rounds to 0 would make an empty cache.
    let bytes = (value * multiplier as f64).round();
    if bytes < 1.0 {
        return Err(format!("capacity must be at least 1 byte, got `{raw}`"));
    }
    Ok(CapacitySpec::Bytes(ByteSize::new(bytes as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn raw_bytes() {
        assert_eq!(
            parse_capacity("1048576").unwrap(),
            CapacitySpec::Bytes(ByteSize::from_mib(1))
        );
        assert_eq!(
            parse_capacity("100B").unwrap(),
            CapacitySpec::Bytes(ByteSize::new(100))
        );
        assert_eq!(
            parse_capacity("0.5").unwrap(),
            CapacitySpec::Bytes(ByteSize::new(1))
        );
    }

    #[test]
    fn units_case_insensitive() {
        for (s, bytes) in [
            ("64KiB", 64 * 1024),
            ("64kb", 64 * 1024),
            ("32MiB", 32 << 20),
            ("32mb", 32 << 20),
            ("2GiB", 2u64 << 30),
            ("2gb", 2u64 << 30),
            ("1.5kib", 1536),
        ] {
            assert_eq!(
                parse_capacity(s).unwrap(),
                CapacitySpec::Bytes(ByteSize::new(bytes)),
                "{s}"
            );
        }
    }

    #[test]
    fn percentages() {
        assert_eq!(
            parse_capacity("5%").unwrap(),
            CapacitySpec::FractionOfTrace(0.05)
        );
        assert_eq!(
            parse_capacity("0.5 %").unwrap(),
            CapacitySpec::FractionOfTrace(0.005)
        );
        assert!(parse_capacity("0%").is_err());
        assert!(parse_capacity("150%").is_err());
        assert!(parse_capacity("1e-323%").is_err(), "a zero fraction");
    }

    #[test]
    fn resolution() {
        let overall = ByteSize::from_mib(100);
        assert_eq!(
            CapacitySpec::FractionOfTrace(0.05).resolve(overall),
            ByteSize::from_mib(5)
        );
        assert_eq!(
            CapacitySpec::Bytes(ByteSize::new(42)).resolve(overall),
            ByteSize::new(42)
        );
    }

    #[test]
    fn garbage_is_rejected() {
        // The last three round to 0 bytes.
        for s in ["", "MiB", "abc", "-5", "1..2kb", "0.4", "0.4B", "0.0001kib"] {
            assert!(parse_capacity(s).is_err(), "{s}");
        }
    }

    proptest! {
        /// Parsing is total over arbitrary and number-shaped strings: an
        /// accepted percentage is a fraction in (0, 1], accepted bytes
        /// are at least 1.
        #[test]
        fn parse_capacity_is_total(
            raw in "\\PC{0,24}|[ +-]?[0-9]{0,4}(\\.[0-9]{0,4})?([eE][+-]?[0-9]{1,3})? ?(%|[bB]|[kmgKMG][iI]?[bB])?",
        ) {
            match parse_capacity(&raw) {
                Ok(CapacitySpec::FractionOfTrace(f)) => {
                    prop_assert!(f > 0.0 && f <= 1.0, "`{}` -> {}", raw, f);
                }
                Ok(CapacitySpec::Bytes(bytes)) => prop_assert!(bytes.as_u64() >= 1, "`{}`", raw),
                Err(_) => {}
            }
        }
    }
}
