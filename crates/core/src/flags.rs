//! The one command-line parser: the `ofence` binary and the bench bins
//! declare the flags that take a value and the switches that take none,
//! and read `--flag value`, `--flag=value`, `--switch` and bare words
//! through [`parse_args`].

use std::str::FromStr;

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Flags in command-line order, each with its value (`None` for a
    /// switch).
    flags: Vec<(String, Option<String>)>,
    /// Bare words in command-line order.
    pub words: Vec<String>,
}

/// Parse `args` against a command's valued `flags`, its `switches`, and
/// the bare `words` it allows (`None`: any). A bare word is any argument
/// that does not start with `--`. An unknown flag or word is an error, as
/// are a valued flag with no value (a next argument that starts with `--`
/// is not a value; `--flag=--x` spells one) and a switch given one.
pub fn parse_args(
    args: &[String],
    flags: &[&str],
    switches: &[&str],
    words: Option<&[&str]>,
) -> Result<Args, String> {
    let mut parsed = Args {
        flags: Vec::new(),
        words: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if words.is_some_and(|allowed| !allowed.contains(&arg.as_str())) {
                return Err(format!("unknown argument `{arg}`"));
            }
            parsed.words.push(arg.clone());
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let value = if flags.contains(&name) {
            let next = || it.next().filter(|v| !v.starts_with("--")).cloned();
            Some(
                inline
                    .or_else(next)
                    .ok_or_else(|| format!("`{name}` needs a value"))?,
            )
        } else if switches.contains(&name) {
            if inline.is_some() {
                return Err(format!("`{name}` takes no value"));
            }
            None
        } else {
            return Err(format!("unknown argument `{name}`"));
        };
        parsed.flags.push((name.to_string(), value));
    }
    Ok(parsed)
}

impl Args {
    /// The flags and switches given, in command-line order.
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.flags.iter().map(|(flag, _)| flag.as_str())
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.flags().any(|f| f == switch)
    }

    /// The raw value of `flag`, if given (the last one, if given twice).
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// The value of `flag` parsed as `T`, if given.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("`{flag}` cannot take `{v}`")))
            .transpose()
    }

    /// The value of `flag` parsed as `T`, or `default` when absent.
    pub fn parsed<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.get(flag)?.unwrap_or(default))
    }

    /// The value of `flag`, which must be one of `allowed`; `default`
    /// when absent.
    pub fn one_of(&self, flag: &str, allowed: &[&str], default: &str) -> Result<String, String> {
        match self.value(flag) {
            None => Ok(default.to_string()),
            Some(v) if allowed.contains(&v) => Ok(v.to_string()),
            Some(v) => Err(format!(
                "`{flag}` cannot take `{v}` (expected {})",
                allowed.join(" or ")
            )),
        }
    }
}
