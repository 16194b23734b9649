//! A tiny dependency-free argument parser for the `classfuzz` binary.

use std::path::Path;

/// Usage text shown for `help` and on parse errors.
pub const USAGE: &str = "\
usage: classfuzz <command> [args]

commands:
  disasm <file.class>                 javap-style disassembly
  jimple <file.class>                 lift to Jimple text
  run    <file.class> [--vm NAME]     run on one profile (default hotspot9)
  diff   <file.class>                 run on all five profiles
  fuzz   [--seeds N] [--iterations N] [--rng-seed S]
         [--criterion st|stbr|tr] [--out DIR] [--crash-dir DIR]
         [--jobs N]                  1 (default): the deterministic sequential
                                     loop; N > 1: N free-running shards
         [--exec-diff]               also difference execution outcomes
         [--seed-select uniform|maxcover]
                                     initial pool: whole corpus / greedy
                                     max-cover over startup coverage
         [--pool-cap N]              distill the pool to <= N entries at
                                     fixed iteration boundaries
         [--seed-shape classic|deep|wide|exotic|versioned|mixed]
                                     seed template family (default classic)
  reduce <file.class> [--out FILE]    minimize a discrepancy or crash trigger
  seeds  --out DIR [--count N] [--rng-seed S] [--shape SHAPE]
                                      write a seed corpus as .class files
  help                                this text

VM names: hotspot7 hotspot8 hotspot9 j9 gij";

/// Parsed command line: a command, an optional positional file, and
/// `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// The subcommand (first argument; empty string when absent).
    pub command: String,
    /// The positional argument, when given.
    pub positional: Option<String>,
    /// `--key value` pairs, in order.
    pub flags: Vec<(String, String)>,
}

impl Parsed {
    /// The positional file argument.
    ///
    /// # Errors
    ///
    /// Errors when the command requires a file and none was given.
    pub fn file(&self) -> Result<&Path, String> {
        self.positional
            .as_deref()
            .map(Path::new)
            .ok_or_else(|| format!("command {:?} needs a classfile argument", self.command))
    }

    /// The last value of `--name`, if present.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the boolean flag `--name` was given (see [`BOOLEAN_FLAGS`]).
    pub fn flag_bool(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    /// Parses `--name` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// Errors when the flag is present but unparseable.
    pub fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                format!(
                    "--{name} expects a {}, got {v:?}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }
}

/// Flags that take no value; present means `"true"`. Every other `--flag`
/// still consumes the next argument as its value.
pub const BOOLEAN_FLAGS: &[&str] = &["exec-diff"];

/// Each command as `(name, takes a positional file, the --flags it reads)`.
const COMMANDS: &[(&str, bool, &[&str])] = &[
    ("disasm", true, &[]),
    ("jimple", true, &[]),
    ("run", true, &["vm"]),
    ("diff", true, &[]),
    (
        "fuzz",
        false,
        &[
            "seeds",
            "iterations",
            "rng-seed",
            "criterion",
            "jobs",
            "out",
            "crash-dir",
            "exec-diff",
            "seed-select",
            "pool-cap",
            "seed-shape",
        ],
    ),
    ("reduce", true, &["out"]),
    ("seeds", false, &["out", "count", "rng-seed", "shape"]),
    ("help", false, &[]),
    ("--help", false, &[]),
    ("-h", false, &[]),
];

/// Parses the argument list against the command's declared flags and
/// positional.
///
/// # Errors
///
/// Errors on a missing or unknown command, a flag the command does not
/// declare, a positional the command does not take, or a (non-boolean)
/// `--flag` without a value.
pub fn parse(args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut args = args.peekable();
    parsed.command = args.next().ok_or("missing command")?;
    let &(command, takes_positional, flags) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == parsed.command)
        .ok_or_else(|| format!("unknown command {:?}", parsed.command))?;
    while let Some(arg) = args.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !flags.contains(&name) {
                return Err(format!("unknown flag {arg:?} for {command}"));
            }
            if BOOLEAN_FLAGS.contains(&name) {
                parsed.flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("--{name} expects a value"))?;
            parsed.flags.push((name.to_string(), value));
        } else if !takes_positional {
            return Err(format!(
                "{command} takes no positional argument, got {arg:?}"
            ));
        } else if parsed.positional.is_none() {
            parsed.positional = Some(arg);
        } else {
            return Err(format!("unexpected extra argument {arg:?}"));
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Parsed, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_positional_and_flags() {
        let parsed = p(&["run", "Foo.class", "--vm", "j9"]).unwrap();
        assert_eq!(parsed.command, "run");
        assert_eq!(parsed.positional.as_deref(), Some("Foo.class"));
        assert_eq!(parsed.flag("vm"), Some("j9"));
        assert_eq!(parsed.flag("missing"), None);
    }

    #[test]
    fn flag_order_last_wins() {
        let parsed = p(&["fuzz", "--seeds", "10", "--seeds", "20"]).unwrap();
        assert_eq!(parsed.flag_parse("seeds", 0usize).unwrap(), 20);
    }

    #[test]
    fn parse_errors() {
        assert!(p(&[]).is_err());
        assert!(p(&["fuzz", "--seeds"]).is_err());
        assert!(p(&["run", "a", "b"]).is_err());
        // Undeclared flags are named, not taken as a value-taking flag.
        let err = p(&["fuzz", "--exec_diff", "--seeds", "3"]).unwrap_err();
        assert!(err.contains("--exec_diff"), "{err}");
        assert!(p(&["diff", "a.class", "--vm", "j9"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
        let parsed = p(&["fuzz", "--seeds", "abc"]).unwrap();
        assert!(parsed.flag_parse("seeds", 0usize).is_err());
    }

    #[test]
    fn jobs_flag_parses() {
        let parsed = p(&["fuzz", "--jobs", "4"]).unwrap();
        assert_eq!(parsed.flag_parse("jobs", 1usize).unwrap(), 4);
        assert_eq!(p(&["fuzz"]).unwrap().flag_parse("jobs", 1usize).unwrap(), 1);
        assert!(p(&["fuzz", "--jobs", "many"])
            .unwrap()
            .flag_parse("jobs", 1usize)
            .is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let parsed = p(&["fuzz", "--exec-diff", "--seeds", "4"]).unwrap();
        assert!(parsed.flag_bool("exec-diff"));
        assert_eq!(parsed.flag_parse("seeds", 0usize).unwrap(), 4);
        assert!(!p(&["fuzz"]).unwrap().flag_bool("exec-diff"));
        // A boolean flag in last position needs no trailing value...
        assert!(p(&["fuzz", "--exec-diff"]).unwrap().flag_bool("exec-diff"));
        // ...while valued flags still do.
        assert!(p(&["fuzz", "--seeds"]).is_err());
    }

    #[test]
    fn defaults_apply_when_absent() {
        let parsed = p(&["fuzz"]).unwrap();
        assert_eq!(parsed.flag_parse("iterations", 1000usize).unwrap(), 1000);
        assert!(parsed.file().is_err());
    }
}
