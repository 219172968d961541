//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
}

/// Argument parsing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// A `--key` had no value or was given twice, or a stray positional
    /// appeared.
    Malformed(String),
    /// A required option is absent.
    MissingOption(&'static str),
    /// An option failed to parse as the expected type.
    BadValue {
        /// The option name.
        key: &'static str,
        /// The raw value.
        value: String,
    },
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "no subcommand given"),
            ArgsError::Malformed(what) => write!(f, "malformed argument: {what}"),
            ArgsError::MissingOption(key) => write!(f, "missing required option --{key}"),
            ArgsError::BadValue { key, value } => {
                write!(f, "option --{key} has unparsable value {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses `argv` (without the program name). A repeated `--key` is
    /// malformed rather than last-wins, so no value is silently dropped.
    pub fn parse<I, S>(argv: I) -> Result<Args, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = argv.into_iter().map(Into::into);
        let command = iter.next().ok_or(ArgsError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgsError::Malformed(command));
        }
        let mut options = HashMap::new();
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ArgsError::Malformed(token));
            };
            let value = iter.next().ok_or_else(|| ArgsError::Malformed(token.clone()))?;
            if options.insert(key.to_string(), value).is_some() {
                return Err(ArgsError::Malformed(format!("{token} given twice")));
            }
        }
        Ok(Args { command, options })
    }

    /// A required string option.
    pub fn required(&self, key: &'static str) -> Result<&str, ArgsError> {
        self.options.get(key).map(String::as_str).ok_or(ArgsError::MissingOption(key))
    }

    /// An optional string option.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required parsed option.
    pub fn required_parse<T: std::str::FromStr>(&self, key: &'static str) -> Result<T, ArgsError> {
        let raw = self.required(key)?;
        raw.parse().map_err(|_| ArgsError::BadValue { key, value: raw.to_string() })
    }

    /// An optional parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        key: &'static str,
        default: T,
    ) -> Result<T, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgsError::BadValue { key, value: raw.clone() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let args = Args::parse(["gen", "--users", "100", "--out", "x.bin"]).unwrap();
        assert_eq!(args.command, "gen");
        assert_eq!(args.required("users").unwrap(), "100");
        assert_eq!(args.required_parse::<usize>("users").unwrap(), 100);
        assert_eq!(args.optional("out"), Some("x.bin"));
        assert_eq!(args.optional("missing"), None);
        assert_eq!(args.parse_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert_eq!(Args::parse(Vec::<String>::new()), Err(ArgsError::MissingCommand));
        assert!(matches!(Args::parse(["--users", "gen"]), Err(ArgsError::Malformed(_))));
        assert!(matches!(Args::parse(["gen", "stray"]), Err(ArgsError::Malformed(_))));
        assert!(matches!(Args::parse(["gen", "--users"]), Err(ArgsError::Malformed(_))));
        assert_eq!(
            Args::parse(["conformance", "--golden", "tests/golden", "--golden", "/tmp/x"]),
            Err(ArgsError::Malformed("--golden given twice".into()))
        );
    }

    #[test]
    fn reports_missing_and_bad_options() {
        let args = Args::parse(["gen", "--users", "many"]).unwrap();
        assert_eq!(args.required("out"), Err(ArgsError::MissingOption("out")));
        assert!(matches!(
            args.required_parse::<usize>("users"),
            Err(ArgsError::BadValue { key: "users", .. })
        ));
        assert!(matches!(args.parse_or::<usize>("users", 1), Err(ArgsError::BadValue { .. })));
    }
}
