//! The command line of the serving binaries (`rif-server`, `rif-client`,
//! `rif-cluster`, `rif-chaos`): `--flag value` pairs and value-less
//! `--switch`es. Each command names the flags and switches it knows; an
//! unknown flag, a bare word, a missing or unparsable value, or a value
//! out of its range is named on stderr before the binary's usage text,
//! and the process exits 2.

use std::fmt::{Debug, Display};
use std::ops::RangeBounds;
use std::str::FromStr;

/// One command's `--flag value` pairs, in command-line order (a flag
/// may repeat); a switch is a pair with an empty value.
pub struct Flags {
    pairs: Vec<(String, String)>,
    usage: fn() -> !,
}

impl Flags {
    /// Pulls the pairs out of `rest`: a flag in `known` takes the next
    /// word as its value, a flag in `switches` takes none, and anything
    /// else is refused. `usage` prints the binary's usage text and exits 2.
    pub fn parse(rest: &[String], known: &[&str], switches: &[&str], usage: fn() -> !) -> Flags {
        let mut pairs = Vec::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            if switches.contains(&flag.as_str()) {
                pairs.push((flag.clone(), String::new()));
                continue;
            }
            if !known.contains(&flag.as_str()) {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            let value = it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            });
            pairs.push((flag.clone(), value.clone()));
        }
        Flags { pairs, usage }
    }

    /// Prints `why` and the usage text, and exits 2.
    pub fn refuse(&self, why: impl Display) -> ! {
        eprintln!("{why}");
        (self.usage)()
    }

    /// Whether `name` was given (a switch, or a flag with any value).
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The first value given for `name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `name`, in order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.pairs
            .iter()
            .filter(move |(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value given for `name`, or the usage text when it is absent.
    pub fn require(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| self.refuse(format_args!("{name} is required")))
    }

    /// The value given for `name` read by `read`, which returns `None`
    /// for a value it cannot read.
    pub fn mapped<T>(&self, name: &str, read: impl Fn(&str) -> Option<T>) -> Option<T> {
        self.get(name).map(|v| {
            read(v).unwrap_or_else(|| self.refuse(format_args!("bad value for {name}: `{v}`")))
        })
    }

    /// The value given for `name` parsed as a `T`.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.mapped(name, |v| v.parse().ok())
    }

    /// The value given for `name` parsed as a `T` and inside `range`.
    pub fn parsed_in<T, R>(&self, name: &str, range: R) -> Option<T>
    where
        T: FromStr + PartialOrd + Display,
        R: RangeBounds<T> + Debug,
    {
        let value = self.parsed(name)?;
        if !range.contains(&value) {
            self.refuse(format_args!("{name} must be in {range:?}, not {value}"));
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_usage() -> ! {
        panic!("refused")
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn switches_take_no_value_and_flags_take_the_next_word() {
        let flags = Flags::parse(
            &words("--learn --port 7 --node a=1 --hybrid --node b=2 --port --learn"),
            &["--port", "--node"],
            &["--learn", "--hybrid", "--cluster"],
            no_usage,
        );
        assert!(flags.has("--learn") && flags.has("--hybrid"));
        assert!(!flags.has("--cluster"));
        // The first value wins; a value may look like a flag.
        assert_eq!(flags.parsed::<u16>("--port"), Some(7));
        assert_eq!(flags.all("--port").collect::<Vec<_>>(), ["7", "--learn"]);
        assert_eq!(flags.all("--node").collect::<Vec<_>>(), ["a=1", "b=2"]);
        let id = |v: &str| v.split_once('=').map(|(id, _)| id.to_string());
        assert_eq!(flags.mapped("--node", id).as_deref(), Some("a"));
        assert_eq!(flags.parsed_in::<u16, _>("--port", 1..), Some(7));
    }

    #[test]
    fn unknown_words_and_missing_values_are_refused() {
        let refused = |line: &str| {
            std::panic::catch_unwind(|| {
                Flags::parse(&words(line), &["--port"], &["--learn"], no_usage)
            })
            .is_err()
        };
        assert!(!refused("--learn --port 1"));
        assert!(refused("--bogus 1"));
        assert!(refused("stray"));
        assert!(refused("--learn 1"));
        assert!(refused("--port"));
        let flags = Flags::parse(&words("--port x"), &["--port"], &[], no_usage);
        assert!(std::panic::catch_unwind(|| flags.parsed::<u16>("--port")).is_err());
    }
}
