//! The one command-line reader of the workspace's binaries.
//!
//! Pull-style: a binary asks for each flag it knows, then for its
//! positional arguments, then calls [`Flags::finish`], which refuses
//! whatever is left. A missing flag takes its default, and a repeated one
//! keeps its last value. A token that starts with `--` is always a flag
//! name, never a value, so the order in which flags are read does not
//! matter; an empty value is no value either.
//!
//! Every refusal — an unknown argument, a flag without its value, a value
//! that does not parse, a zero count or duration — is one stderr line
//! `BIN: …` naming the flag, and exit status 2. A binary reads its whole
//! command line before it writes a file, binds a socket or declares a
//! cell, so a refused line has done nothing.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

/// The unit a duration flag counts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Seconds (`--cell-timeout`, `--io-timeout`).
    Seconds,
    /// Milliseconds (the `-ms` flags).
    Millis,
}

/// A binary's command line, read flag by flag.
#[derive(Debug)]
pub struct Flags {
    bin: &'static str,
    /// The arguments after the program name; `None` once read.
    args: Vec<Option<String>>,
}

impl Flags {
    /// The process's command line; refusals name `bin`.
    #[must_use]
    pub fn from_env(bin: &'static str) -> Self {
        Self::new(bin, std::env::args().skip(1))
    }

    /// The command line `args`, without the program name.
    fn new(bin: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        Self {
            bin,
            args: args.into_iter().map(Some).collect(),
        }
    }

    /// Refuses the command line: prints `BIN: msg` on stderr and exits 2.
    /// In this crate's own unit tests it panics with that line instead,
    /// so they can assert each refusal.
    pub fn refuse(&self, msg: impl Display) -> ! {
        let line = format!("{}: {msg}", self.bin);
        if cfg!(test) {
            panic!("{line}");
        }
        eprintln!("{line}");
        std::process::exit(2);
    }

    /// Every value of the repeatable flag `flag`, in command-line order.
    pub fn values(&mut self, flag: &str) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..self.args.len() {
            if self.args[i].as_deref() != Some(flag) {
                continue;
            }
            self.args[i] = None;
            match self.args.get_mut(i + 1).and_then(Option::take) {
                Some(v) if !v.is_empty() && !v.starts_with("--") => out.push(v),
                _ => self.refuse(format!("{flag} needs a value")),
            }
        }
        out
    }

    /// The last value of `flag`, or `None` when it is absent.
    pub fn value(&mut self, flag: &str) -> Option<String> {
        self.values(flag).pop()
    }

    /// The last value of `flag`, which must be given.
    pub fn required(&mut self, flag: &str) -> String {
        self.value(flag)
            .unwrap_or_else(|| self.refuse(format!("{flag} is required")))
    }

    /// Whether the valueless flag `flag` is given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let mut given = false;
        for arg in &mut self.args {
            if arg.as_deref() == Some(flag) {
                *arg = None;
                given = true;
            }
        }
        given
    }

    /// The number after `flag`, or `default` when it is absent.
    pub fn number<T: FromStr>(&mut self, flag: &str, default: T) -> T {
        self.value(flag).map_or(default, |v| self.parse(flag, &v))
    }

    /// The number after `flag`, which must be at least 1, or `default`
    /// when it is absent.
    pub fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str, default: T) -> T {
        let n = self.number(flag, default);
        if n < T::from(1) {
            self.refuse(format!("{flag} must be at least 1"));
        }
        n
    }

    /// The positive duration after `flag`, counted in `unit` (fractions
    /// accepted), or `None` when it is absent.
    pub fn duration(&mut self, flag: &str, unit: Unit) -> Option<Duration> {
        let v = self.value(flag)?;
        let n: f64 = self.parse(flag, &v);
        let (per_sec, name) = match unit {
            Unit::Seconds => (1.0, "seconds"),
            Unit::Millis => (1e3, "milliseconds"),
        };
        Duration::try_from_secs_f64(n / per_sec)
            .ok()
            .filter(|d| !d.is_zero())
            .or_else(|| self.refuse(format!("{flag} must be a positive number of {name}")))
    }

    /// The first argument left that is not a flag. Read it after the
    /// flags whose value it could be, unless it leads the line (a
    /// subcommand).
    pub fn positional(&mut self) -> Option<String> {
        self.args
            .iter_mut()
            .find(|a| a.as_deref().is_some_and(|a| !a.starts_with("--")))
            .and_then(Option::take)
    }

    fn parse<T: FromStr>(&self, flag: &str, v: &str) -> T {
        v.parse()
            .unwrap_or_else(|_| self.refuse(format!("{flag} {v:?} is not a valid number")))
    }

    /// Refuses the first argument no read took.
    pub fn finish(&self) {
        if let Some(arg) = self.args.iter().flatten().next() {
            self.refuse(format!("unexpected argument {arg:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    fn flags(line: &str) -> Flags {
        Flags::new("t", line.split(' ').map(str::to_owned))
    }

    /// The line `read` and then `finish` refuse `line` with.
    fn refusal<T>(line: &str, read: impl FnOnce(&mut Flags) -> T) -> String {
        let mut f = flags(line);
        let err = catch_unwind(AssertUnwindSafe(|| {
            read(&mut f);
            f.finish();
        }))
        .expect_err(line);
        *err.downcast::<String>().expect("a formatted message")
    }

    #[test]
    fn reads_every_accepted_form() {
        let mut f = flags("--jobs 2 --worker a --quiet --worker b --jobs 3 --t 0.5 --t-ms 1.5");
        assert_eq!(f.count("--jobs", 1_usize), 3, "the last value wins");
        assert_eq!(f.values("--worker"), ["a", "b"]);
        assert_eq!(
            f.number("--seed", 7_u64),
            7,
            "a missing flag takes its default"
        );
        assert_eq!(f.value("--cache"), None);
        assert!(f.switch("--quiet"));
        assert!(!f.switch("--verbose"));
        let secs = f.duration("--t", Unit::Seconds);
        assert_eq!(secs, Some(Duration::from_millis(500)));
        let millis = f.duration("--t-ms", Unit::Millis);
        assert_eq!(millis, Some(Duration::from_micros(1500)));
        assert_eq!(f.duration("--absent", Unit::Seconds), None);
        f.finish();

        let mut f = flags("--scale 512 tab6");
        assert_eq!(f.number("--scale", 256_u64), 512);
        assert_eq!(f.positional().as_deref(), Some("tab6"), "after the flags");
        assert_eq!(f.positional(), None);
        f.finish();

        let mut f = flags("gen --out g.dtf");
        assert_eq!(
            f.positional().as_deref(),
            Some("gen"),
            "a leading subcommand"
        );
        assert_eq!(f.required("--out"), "g.dtf");
        f.finish();
    }

    #[test]
    fn refuses_each_malformed_form_naming_the_flag() {
        let n = |f: &mut Flags| f.number("--n", 1_u64);
        let secs = |f: &mut Flags| f.duration("--t", Unit::Seconds);
        assert_eq!(refusal("--n", n), "t: --n needs a value");
        assert_eq!(refusal("--n --quiet", n), "t: --n needs a value");
        assert_eq!(refusal("--n ", n), "t: --n needs a value");
        assert_eq!(refusal("", |f| f.required("--out")), "t: --out is required");
        assert_eq!(
            refusal("--n abc", n),
            r#"t: --n "abc" is not a valid number"#
        );
        let zero = refusal("--n 0", |f| f.count("--n", 1_usize));
        assert_eq!(zero, "t: --n must be at least 1");
        for t in ["0", "-1", "inf", "NaN"] {
            let line = format!("--t {t}");
            let want = "t: --t must be a positive number of seconds";
            assert_eq!(refusal(&line, secs), want, "{line}");
        }
        let ms = refusal("--t-ms 0", |f| f.duration("--t-ms", Unit::Millis));
        assert_eq!(ms, "t: --t-ms must be a positive number of milliseconds");
        let extra = refusal("run extra", Flags::positional);
        assert_eq!(extra, r#"t: unexpected argument "extra""#);
        assert_eq!(refusal("--m 512", n), r#"t: unexpected argument "--m""#);
    }
}
