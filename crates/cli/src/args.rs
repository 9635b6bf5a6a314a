//! Minimal `--flag value` argument parsing.
//!
//! The CLI's entire surface is `--key value` pairs plus boolean
//! `--switch`es, so a small hand-rolled parser keeps the workspace free
//! of an argument-parsing dependency.

use std::collections::HashMap;
use std::fmt;

/// A parsed argument list: `--key value` pairs and boolean switches.
/// Flags declared repeatable collect every occurrence in order.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Errors produced while parsing or querying arguments.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A non-flag token appeared where a `--flag` was expected.
    Unexpected(String),
    /// A flag the subcommand does not read (carries its name).
    Unknown(String),
    /// The same flag appeared twice.
    Duplicate(String),
    /// A required flag is absent.
    Missing(&'static str),
    /// A flag's value failed to parse.
    Invalid {
        /// The flag name.
        flag: String,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unexpected(tok) => write!(f, "unexpected argument `{tok}`"),
            ArgError::Unknown(flag) => write!(f, "unknown flag `--{flag}` for this subcommand"),
            ArgError::Duplicate(flag) => write!(f, "flag `--{flag}` given twice"),
            ArgError::Missing(flag) => write!(f, "missing required flag `--{flag}`"),
            ArgError::Invalid { flag, message } => {
                write!(f, "bad value for `--{flag}`: {message}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a token list. `switches` declares the boolean flags this
    /// subcommand accepts; every other `--flag` must be followed by a
    /// value. Declaring switches per subcommand means a switch that
    /// belongs to a *different* subcommand errors here instead of
    /// silently swallowing the next token as its value.
    ///
    /// # Errors
    ///
    /// Fails on bare tokens, duplicated flags, a trailing flag with no
    /// value, or a value that itself looks like a flag (the usual shape
    /// of a misplaced switch).
    pub fn parse(tokens: &[String], switches: &[&str]) -> Result<Args, ArgError> {
        Args::parse_flags(tokens, switches, None, &[])
    }

    /// Like [`Args::parse`], but for a subcommand that reads exactly the
    /// value flags in `values` and `repeatable`: any other flag is an
    /// [`ArgError::Unknown`] naming it, so a misspelt flag never silently
    /// runs the default. The flags in `repeatable` may appear any number
    /// of times; their values accumulate in command-line order (read them
    /// back with [`Args::get_all`]). Every other flag keeps the
    /// appear-at-most-once rule.
    ///
    /// # Errors
    ///
    /// As [`Args::parse`], and on the first undeclared flag.
    pub fn parse_declared(
        tokens: &[String],
        switches: &[&str],
        values: &[&str],
        repeatable: &[&str],
    ) -> Result<Args, ArgError> {
        Args::parse_flags(tokens, switches, Some(values), repeatable)
    }

    /// Checks arguments from [`Args::parse`], which accepts any value
    /// flag, against the space-separated lists of the switches and the
    /// value flags a subcommand reads.
    ///
    /// # Errors
    ///
    /// [`ArgError::Unknown`] naming a flag outside both lists (the first
    /// in name order, when there are several).
    pub(crate) fn check_declared(&self, switches: &str, values: &str) -> Result<(), ArgError> {
        let declared = |list: &str, flag: &str| list.split_whitespace().any(|word| word == flag);
        let undeclared = self
            .switches
            .iter()
            .filter(|flag| !declared(switches, flag))
            .chain(self.values.keys().filter(|flag| !declared(values, flag)))
            .min();
        undeclared.map_or(Ok(()), |flag| Err(ArgError::Unknown(flag.clone())))
    }

    /// The parser behind [`Args::parse`] (`values: None` accepts any
    /// value flag) and [`Args::parse_declared`].
    fn parse_flags(
        tokens: &[String],
        switches: &[&str],
        values: Option<&[&str]>,
        repeatable: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.iter();
        while let Some(token) = iter.next() {
            let Some(flag) = token.strip_prefix("--") else {
                return Err(ArgError::Unexpected(token.clone()));
            };
            let is_switch = switches.contains(&flag);
            let known = is_switch
                || repeatable.contains(&flag)
                || values.is_none_or(|values| values.contains(&flag));
            if !known {
                return Err(ArgError::Unknown(flag.to_owned()));
            }
            if is_switch {
                if args.switches.iter().any(|s| s == flag) {
                    return Err(ArgError::Duplicate(flag.to_owned()));
                }
                args.switches.push(flag.to_owned());
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(ArgError::Invalid {
                    flag: flag.to_owned(),
                    message: "expected a value (is this switch supported by this subcommand?)"
                        .to_owned(),
                });
            };
            if value.starts_with("--") {
                return Err(ArgError::Invalid {
                    flag: flag.to_owned(),
                    message: format!(
                        "expected a value, found flag `{value}` (is `--{flag}` a switch of \
                         another subcommand?)"
                    ),
                });
            }
            let slot = args.values.entry(flag.to_owned()).or_default();
            if !slot.is_empty() && !repeatable.contains(&flag) {
                return Err(ArgError::Duplicate(flag.to_owned()));
            }
            slot.push(value.clone());
        }
        Ok(args)
    }

    /// An optional string value (the first occurrence, for repeatable
    /// flags).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .get(flag)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// Every value a repeatable flag was given, in command-line order
    /// (empty when absent).
    pub fn get_all(&self, flag: &str) -> &[String] {
        self.values.get(flag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A required string value.
    ///
    /// # Errors
    ///
    /// [`ArgError::Missing`] when absent.
    pub fn require(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.get(flag).ok_or(ArgError::Missing(flag))
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// An optional value parsed with `FromStr`.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: fmt::Display,
    {
        match self.get(flag) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|e| ArgError::Invalid {
                flag: flag.to_owned(),
                message: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = Args::parse(&toks("--profile dfn --seed 7 --csv"), &["csv"]).unwrap();
        assert_eq!(a.get("profile"), Some("dfn"));
        assert_eq!(a.get_parsed::<u64>("seed").unwrap(), Some(7));
        assert!(a.switch("csv"));
        assert!(!a.switch("quiet"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn rejects_bare_tokens() {
        assert_eq!(
            Args::parse(&toks("dfn"), &[]).unwrap_err(),
            ArgError::Unexpected("dfn".into())
        );
    }

    #[test]
    fn rejects_duplicates() {
        assert_eq!(
            Args::parse(&toks("--seed 1 --seed 2"), &[]).unwrap_err(),
            ArgError::Duplicate("seed".into())
        );
        assert_eq!(
            Args::parse(&toks("--csv --csv"), &["csv"]).unwrap_err(),
            ArgError::Duplicate("csv".into())
        );
    }

    #[test]
    fn repeatable_flags_accumulate_in_order() {
        let a = Args::parse_declared(
            &toks("--policy tinylfu+slru --policy arc --seed 7"),
            &[],
            &["seed"],
            &["policy"],
        )
        .unwrap();
        assert_eq!(a.get_all("policy"), ["tinylfu+slru", "arc"]);
        assert_eq!(a.get("policy"), Some("tinylfu+slru"), "first occurrence");
        assert_eq!(a.get_all("seed"), ["7"]);
        assert_eq!(a.get_all("absent"), [] as [&str; 0]);
        // Non-repeatable flags still reject duplicates.
        assert_eq!(
            Args::parse_declared(&toks("--seed 1 --seed 2"), &[], &["seed"], &["policy"])
                .unwrap_err(),
            ArgError::Duplicate("seed".into())
        );
    }

    #[test]
    fn declared_parsing_rejects_the_first_unread_flag() {
        let parse = |line: &str| Args::parse_declared(&toks(line), &["csv"], &["capacity"], &[]);
        let a = parse("--capacity 5% --csv").unwrap();
        assert_eq!(a.get("capacity"), Some("5%"));
        assert!(a.switch("csv"));
        assert_eq!(
            parse("--capactiy 1% --bogus 3").unwrap_err(),
            ArgError::Unknown("capactiy".into())
        );
        // An unread flag is named even where it would lack a value.
        assert_eq!(
            parse("--capacity 5% --json").unwrap_err(),
            ArgError::Unknown("json".into())
        );
        let message = ArgError::Unknown("capactiy".into()).to_string();
        assert!(message.contains("`--capactiy`"), "{message}");
        // Undeclared parsing keeps accepting any value flag, and a later
        // check against the declared lists names the first unread one.
        let lenient = Args::parse(&toks("--capactiy 1% --bogus 3 --csv"), &["csv"]).unwrap();
        assert_eq!(lenient.get("capactiy"), Some("1%"));
        assert_eq!(
            lenient.check_declared("csv", "capacity"),
            Err(ArgError::Unknown("bogus".into()))
        );
        assert_eq!(
            lenient.check_declared("", "bogus capactiy"),
            Err(ArgError::Unknown("csv".into()))
        );
        assert_eq!(lenient.check_declared("csv", "capactiy bogus"), Ok(()));
    }

    #[test]
    fn rejects_trailing_flag() {
        let err = Args::parse(&toks("--out"), &[]).unwrap_err();
        assert!(matches!(err, ArgError::Invalid { .. }));
    }

    #[test]
    fn undeclared_switch_errors_instead_of_eating_a_flag() {
        // `--csv` is not a switch of this (hypothetical) subcommand: it
        // must not silently consume `--policy` as its value.
        let err = Args::parse(&toks("--csv --policy lru"), &["progress"]).unwrap_err();
        match err {
            ArgError::Invalid { flag, message } => {
                assert_eq!(flag, "csv");
                assert!(message.contains("--policy"), "{message}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        // Trailing undeclared switch: also an error.
        let err = Args::parse(&toks("--policy lru --csv"), &["progress"]).unwrap_err();
        assert!(
            matches!(err, ArgError::Invalid { ref flag, .. } if flag == "csv"),
            "{err:?}"
        );
    }

    #[test]
    fn same_name_is_switch_or_value_flag_per_subcommand() {
        let a = Args::parse(&toks("--json --window 5"), &["json"]).unwrap();
        assert!(a.switch("json"));
        let b = Args::parse(&toks("--json out.json"), &[]).unwrap();
        assert_eq!(b.get("json"), Some("out.json"));
        assert!(!b.switch("json"));
    }

    #[test]
    fn require_and_parse_errors() {
        let a = Args::parse(&toks("--seed notanumber"), &[]).unwrap();
        assert_eq!(a.require("out"), Err(ArgError::Missing("out")));
        assert!(a.get_parsed::<u64>("seed").is_err());
        assert!(a.require("seed").is_ok());
    }

    #[test]
    fn error_messages_are_actionable() {
        assert_eq!(
            ArgError::Missing("out").to_string(),
            "missing required flag `--out`"
        );
        assert!(ArgError::Duplicate("x".into())
            .to_string()
            .contains("twice"));
    }
}
