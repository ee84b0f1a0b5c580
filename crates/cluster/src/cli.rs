//! The `--flag value` command line of the `rif-cluster` and `rif-chaos`
//! binaries. Each subcommand names the flags it knows; an unknown flag,
//! a bare word, a missing or unparsable value, or a value out of its
//! range prints the binary's usage text and exits 2.

use std::fmt::{Debug, Display};
use std::ops::RangeBounds;
use std::str::FromStr;

/// One subcommand's `--flag value` pairs, in command-line order (a flag
/// may repeat).
pub struct Flags {
    pairs: Vec<(String, String)>,
    usage: fn() -> !,
}

impl Flags {
    /// Pulls the pairs out of `rest`, refusing any flag not in `known`.
    /// `usage` prints the binary's usage text and exits 2.
    pub fn parse(rest: &[String], known: &[&str], usage: fn() -> !) -> Flags {
        let mut pairs = Vec::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
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

    /// The value given for `name` parsed as a `T`.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.refuse(format_args!("bad value for {name}: `{v}`")))
        })
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
