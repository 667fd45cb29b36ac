//! The one flag parser and the one failure path of every `fraz` subcommand.
//!
//! A subcommand declares its flags once, as a [`Command`] table of
//! `(long, short alias, takes a value)`; [`Command::parse`] checks a command
//! line against it, and the typed getters of [`Args`] read the values.
//! Every subcommand returns `Result<u8, Failure>`, and [`exit_code`] is the
//! only place a failure is printed:
//!
//! * [`Failure::Usage`] — `fraz <cmd>: msg` and the usage, exit 2;
//! * [`Failure::Run`] — `fraz: msg`, exit 1;
//! * [`Failure::Help`] — `--help`/`-h`: the usage on stdout, exit 0.

use std::collections::HashMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// One accepted flag: its long name, an optional short alias, and whether
/// it takes a value.
pub type Flag = (&'static str, Option<&'static str>, bool);

/// A (sub)command: how its messages start, its usage text, its flags.
#[derive(Debug)]
pub struct Command {
    /// The prefix of its usage errors, e.g. `fraz store create`.
    pub name: &'static str,
    /// Printed by `--help` and after every usage error.
    pub usage: &'static str,
    /// Every flag the command accepts.
    pub flags: &'static [Flag],
}

/// Why a command ended without an exit code of its own.
#[derive(Debug)]
pub enum Failure {
    /// The command line is wrong: exit 2.
    Usage(&'static Command, String),
    /// A configuration or runtime failure: exit 1.
    Run(String),
    /// `--help` or `-h`: exit 0.
    Help(&'static Command),
}

/// Every error a command does not word itself is a runtime failure.
impl<E: Display> From<E> for Failure {
    fn from(e: E) -> Self {
        Failure::Run(e.to_string())
    }
}

/// Print `result`'s failure, if any, and return the process exit code.
pub fn exit_code(result: Result<u8, Failure>) -> u8 {
    match result {
        Ok(code) => code,
        Err(Failure::Usage(command, msg)) => {
            eprintln!("{}: {msg}\n\n{}", command.name, command.usage);
            2
        }
        Err(Failure::Run(msg)) => {
            eprintln!("fraz: {msg}");
            1
        }
        Err(Failure::Help(command)) => {
            println!("{}", command.usage);
            0
        }
    }
}

impl Command {
    /// Check `args` against the flag table.  A repeated flag keeps its last
    /// value.
    pub fn parse(&'static self, args: &[String]) -> Result<Args, Failure> {
        let mut given = HashMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Failure::Help(self));
            }
            let Some(&(long, _, takes_value)) = self
                .flags
                .iter()
                .find(|(long, short, _)| arg == long || *short == Some(arg.as_str()))
            else {
                return Err(self.usage(format!("unknown option `{arg}`")));
            };
            let value = if takes_value {
                let value = iter.next().cloned();
                Some(value.ok_or_else(|| self.usage(format!("{long} needs a value")))?)
            } else {
                None
            };
            given.insert(long, value);
        }
        Ok(Args {
            command: self,
            given,
        })
    }

    /// A usage error of this command.
    pub fn usage(&'static self, msg: impl Into<String>) -> Failure {
        Failure::Usage(self, msg.into())
    }
}

/// A command line that passed its [`Command`]'s flag table; flags are read
/// by their long names.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    /// Each given flag's last value (`None` for a switch).
    given: HashMap<&'static str, Option<String>>,
}

impl Args {
    fn given(&self, long: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.command.flags.iter().any(|f| f.0 == long),
            "{long} is not a flag of `{}`",
            self.command.name
        );
        self.given.get(long)
    }

    /// True when the switch `long` was given.
    pub fn has(&self, long: &str) -> bool {
        self.given(long).is_some()
    }

    /// The value of `long`, when given.
    pub fn value(&self, long: &str) -> Option<&str> {
        self.given(long).and_then(Option::as_deref)
    }

    /// The value of `long` as a path, when given.
    pub fn path(&self, long: &str) -> Option<PathBuf> {
        self.value(long).map(PathBuf::from)
    }

    /// The value of a flag the command cannot run without.
    pub fn required(&self, long: &str) -> Result<&str, Failure> {
        self.value(long)
            .ok_or_else(|| self.usage(format!("{long} is required")))
    }

    /// The value of `long` through `parse`, whose error is a usage error.
    pub fn parse_with<T>(
        &self,
        long: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, Failure> {
        self.value(long)
            .map(parse)
            .transpose()
            .map_err(|msg| self.usage(msg))
    }

    /// The value of `long` parsed as a `T`, when given.
    pub fn num<T: FromStr>(&self, long: &str) -> Result<Option<T>, Failure> {
        self.parse_with(long, |raw| {
            raw.parse()
                .map_err(|_| format!("{long}: cannot parse `{raw}`"))
        })
    }

    /// Overwrite `slot` with the value of `long`, when given.
    pub fn set<T: FromStr>(&self, long: &str, slot: &mut T) -> Result<(), Failure> {
        if let Some(value) = self.num(long)? {
            *slot = value;
        }
        Ok(())
    }

    /// A usage error of the command these arguments were parsed for.
    pub fn usage(&self, msg: impl Into<String>) -> Failure {
        self.command.usage(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Command = Command {
        name: "fraz demo",
        usage: "USAGE: fraz demo",
        flags: &[
            ("--out", Some("-o"), true),
            ("--workers", None, true),
            ("--quiet", Some("-q"), false),
        ],
    };

    fn parse(list: &[&str]) -> Result<Args, Failure> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        DEMO.parse(&args)
    }

    /// The exit code and usage message of a failure.
    fn usage_error(failure: Failure) -> (u8, String) {
        let msg = match &failure {
            Failure::Usage(_, msg) => msg.clone(),
            other => panic!("not a usage error: {other:?}"),
        };
        (exit_code(Err(failure)), msg)
    }

    #[test]
    fn aliases_and_long_names_are_one_flag() {
        let args = parse(&["-o", "a.jsonl", "-q"]).unwrap();
        assert_eq!(args.value("--out"), Some("a.jsonl"));
        assert!(args.has("--quiet"));
        let args = parse(&["--out", "b.jsonl"]).unwrap();
        assert_eq!(args.path("--out"), Some(PathBuf::from("b.jsonl")));
        assert!(!args.has("--quiet"));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let args = parse(&["--workers", "2", "-o", "a", "--workers", "5", "--out", "b"]).unwrap();
        assert_eq!(args.num::<usize>("--workers").unwrap(), Some(5));
        assert_eq!(args.value("--out"), Some("b"));
    }

    #[test]
    fn bad_command_lines_exit_2_naming_the_flag() {
        let (code, msg) = usage_error(parse(&["--quiet", "--out"]).unwrap_err());
        assert_eq!(code, 2);
        assert!(
            msg.contains("--out") && msg.contains("needs a value"),
            "{msg}"
        );

        let (code, msg) = usage_error(parse(&["--frobnicate"]).unwrap_err());
        assert_eq!(code, 2);
        assert!(msg.contains("--frobnicate"), "{msg}");

        let args = parse(&["--workers", "many"]).unwrap();
        let (code, msg) = usage_error(args.num::<usize>("--workers").unwrap_err());
        assert_eq!(code, 2);
        assert!(msg.contains("--workers") && msg.contains("many"), "{msg}");

        let (code, msg) = usage_error(args.required("--out").unwrap_err());
        assert_eq!(code, 2);
        assert!(msg.contains("--out"), "{msg}");
    }

    #[test]
    fn help_exits_0_wherever_it_appears() {
        for list in [&["--help"][..], &["-q", "-h"], &["-h", "--bogus"]] {
            let failure = parse(list).unwrap_err();
            assert!(matches!(failure, Failure::Help(_)), "{list:?}");
            assert_eq!(exit_code(Err(failure)), 0);
        }
    }

    #[test]
    fn other_errors_exit_1() {
        let failure: Failure = std::io::Error::other("disk on fire").into();
        assert!(matches!(&failure, Failure::Run(msg) if msg == "disk on fire"));
        assert_eq!(exit_code(Err(failure)), 1);
        assert_eq!(exit_code(Ok(3)), 3);
    }
}
