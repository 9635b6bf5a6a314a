//! Composable policy specification: the single construction entry point.
//!
//! A [`PolicySpec`] pairs an [`AdmissionSpec`] with a [`PolicyKind`], so
//! "frequency-sketch admission composed with any replacement policy" is a
//! first-class, parseable, serializable value, and the only place a run
//! chooses its admission filter:
//!
//! ```
//! use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
//!
//! let spec: PolicySpec = "tinylfu+slru".parse().unwrap();
//! assert_eq!(spec.admission, AdmissionSpec::TinyLfu);
//! assert_eq!(spec.replacement, PolicyKind::Slru);
//! assert_eq!(spec.to_string(), "TinyLFU+SLRU");
//!
//! // A bare replacement name is the admit-everything spec.
//! let arc: PolicySpec = "arc".parse().unwrap();
//! assert_eq!(arc, PolicyKind::Arc.into());
//! ```
//!
//! The grammar is `[admission "+"] replacement`. Replacement names are
//! everything [`PolicyKind::parse`] accepts; admission prefixes are
//! `tinylfu`, `2hit[:WINDOW]` (alias `secondhit`), `max:BYTES` (alias
//! `maxsize`), and the explicit `all`. `Display` prints the canonical
//! label (`TinyLFU+SLRU`, `2HIT:16+LRU`, or the bare replacement label
//! when admission is `All`) and `FromStr` parses it back — a round trip
//! the spec proptests pin for every combination.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use webcache_trace::ByteSize;

use crate::admission::AdmissionSpec;
use crate::policy::{PolicyKind, ReplacementPolicy};

/// Window used when a `2hit` prefix names no explicit window.
pub const DEFAULT_SECOND_HIT_WINDOW: usize = 4_096;

/// A complete cache policy: who gets in, and who gets thrown out.
///
/// See the module-level documentation for the grammar and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Admission filter consulted before storing a fetched document.
    pub admission: AdmissionSpec,
    /// Replacement scheme choosing eviction victims.
    pub replacement: PolicyKind,
}

impl PolicySpec {
    /// A spec composing the given admission filter and replacement kind.
    pub fn new(admission: AdmissionSpec, replacement: PolicyKind) -> Self {
        PolicySpec {
            admission,
            replacement,
        }
    }

    /// The canonical composed label: `"TinyLFU+SLRU"`, or the bare
    /// replacement label when admission is [`AdmissionSpec::All`].
    pub fn label(&self) -> String {
        match self.admission.label_prefix() {
            Some(prefix) => format!("{prefix}+{}", self.replacement.label()),
            None => self.replacement.label(),
        }
    }

    /// Constructs the replacement policy instance for this spec. The
    /// admission half is built by the cache, which owns the filter's
    /// state: `Cache::new(capacity, spec.build(), spec.admission)`.
    pub fn build(&self) -> Box<dyn ReplacementPolicy> {
        self.replacement.build()
    }

    /// Like [`PolicySpec::build`], but routing the replacement policy's
    /// internal events (heap costs, inflation, eviction reasons) into
    /// `sink`. `build_instrumented(())` is exactly [`PolicySpec::build`].
    pub fn build_instrumented<M: webcache_obs::MetricsSink>(
        &self,
        sink: M,
    ) -> Box<dyn ReplacementPolicy> {
        self.replacement.build_instrumented(sink)
    }

    /// Parses the `[admission "+"] replacement` grammar, returning
    /// `None` for anything malformed. `FromStr` wraps this with a
    /// descriptive error.
    pub fn parse(name: &str) -> Option<PolicySpec> {
        let mut parts = name.splitn(3, '+');
        let first = parts.next()?;
        let second = parts.next();
        if parts.next().is_some() {
            return None; // at most one '+'
        }
        match second {
            None => Some(PolicyKind::parse(first)?.into()),
            Some(replacement) => Some(PolicySpec::new(
                parse_admission(first)?,
                PolicyKind::parse(replacement)?,
            )),
        }
    }
}

/// A bare replacement kind is the admit-everything spec.
impl From<PolicyKind> for PolicySpec {
    fn from(replacement: PolicyKind) -> Self {
        PolicySpec::new(AdmissionSpec::All, replacement)
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error returned when a policy spec fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    input: String,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown policy spec '{}' (expected [admission+]replacement, e.g. 'tinylfu+slru', \
             '2hit:16+lru', 'arc')",
            self.input
        )
    }
}

impl std::error::Error for ParseSpecError {}

impl FromStr for PolicySpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicySpec::parse(s).ok_or_else(|| ParseSpecError {
            input: s.to_string(),
        })
    }
}

/// Parses an admission prefix token (`tinylfu`, `2hit:16`, `max:4096`,
/// `all`), with the same forgiving normalization as policy names.
fn parse_admission(token: &str) -> Option<AdmissionSpec> {
    let normalized: String = token
        .to_ascii_lowercase()
        .chars()
        .filter(|c| !matches!(c, '(' | ')' | '-' | '_' | ' '))
        .collect();
    let (name, arg) = match normalized.split_once(':') {
        Some((name, arg)) => (name, Some(arg)),
        None => (normalized.as_str(), None),
    };
    Some(match (name, arg) {
        ("all", None) => AdmissionSpec::All,
        ("tinylfu", None) => AdmissionSpec::TinyLfu,
        ("2hit" | "secondhit", None) => AdmissionSpec::SecondHit(DEFAULT_SECOND_HIT_WINDOW),
        ("2hit" | "secondhit", Some(window)) => {
            let window: usize = window.parse().ok()?;
            if window == 0 {
                return None;
            }
            AdmissionSpec::SecondHit(window)
        }
        ("max" | "maxsize", Some(bytes)) => {
            AdmissionSpec::MaxSize(ByteSize::new(bytes.parse().ok()?))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_replacement_names_parse_to_admit_all() {
        for kind in PolicyKind::ALL {
            let spec = PolicySpec::parse(&kind.label()).unwrap();
            assert_eq!(spec, PolicySpec::from(kind), "{kind}");
            assert_eq!(spec.label(), kind.label(), "{kind}");
        }
    }

    #[test]
    fn display_from_str_round_trips_composed_specs() {
        let admissions = [
            AdmissionSpec::All,
            AdmissionSpec::TinyLfu,
            AdmissionSpec::SecondHit(16),
            AdmissionSpec::MaxSize(ByteSize::new(65_536)),
        ];
        for admission in admissions {
            for replacement in PolicyKind::ALL {
                let spec = PolicySpec::new(admission, replacement);
                let parsed: PolicySpec = spec.to_string().parse().unwrap_or_else(|e| {
                    panic!("{spec} failed to re-parse: {e}");
                });
                assert_eq!(parsed, spec);
            }
        }
    }

    #[test]
    fn acceptance_spellings_parse() {
        let spec: PolicySpec = "tinylfu+slru".parse().unwrap();
        assert_eq!(
            spec,
            PolicySpec::new(AdmissionSpec::TinyLfu, PolicyKind::Slru)
        );
        assert_eq!(spec.to_string(), "TinyLFU+SLRU");
        assert_eq!(
            "tinylfu+gd*(p)".parse::<PolicySpec>().unwrap().label(),
            "TinyLFU+GD*(P)"
        );
        assert_eq!(
            "2hit+lru".parse::<PolicySpec>().unwrap().admission,
            AdmissionSpec::SecondHit(DEFAULT_SECOND_HIT_WINDOW)
        );
        assert_eq!(
            "max:4096+size".parse::<PolicySpec>().unwrap().admission,
            AdmissionSpec::MaxSize(ByteSize::new(4096))
        );
        assert_eq!(
            "all+lru".parse::<PolicySpec>().unwrap(),
            PolicyKind::Lru.into()
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "tinylfu",         // admission with no replacement
            "tinylfu+",        // empty replacement
            "+lru",            // empty admission
            "tinylfu+nope",    // unknown replacement
            "nope+lru",        // unknown admission
            "tinylfu+lru+lru", // too many parts
            "2hit:0+lru",      // zero window
            "max+lru",         // max requires a byte count
            "2hit:x+lru",      // non-numeric window
        ] {
            assert!(PolicySpec::parse(bad).is_none(), "{bad:?} must not parse");
            assert!(bad.parse::<PolicySpec>().is_err(), "{bad:?}");
        }
        let err = "tinylfu".parse::<PolicySpec>().unwrap_err();
        assert!(err.to_string().contains("tinylfu"), "{err}");
    }

    #[test]
    fn build_constructs_the_replacement_half() {
        let spec = PolicySpec::new(AdmissionSpec::TinyLfu, PolicyKind::S3Fifo);
        assert_eq!(spec.build().label(), "S3-FIFO");
    }
}
