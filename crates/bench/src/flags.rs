//! The `evaluate` command line, declared once as flag tables.
//!
//! Every flag is one [`Flag`]: its name, what its value must be, the flag
//! it needs beside it, and a help line. [`COMMON`] holds the flags every
//! experiment takes, and each [`ExperimentSpec`] lists in its `flags`
//! table the ones only it reads; a flag several experiments read is one
//! declaration their tables share. [`Invocation::parse`] checks a whole
//! command line against those tables (their union for `all`) before
//! anything runs, so a bad line is one [`UsageError`] naming its token,
//! and experiments read the checked values through a [`Line`].

use std::fmt;

use silo_workloads::workload_by_name;

use crate::exp::{ExpParams, ExperimentSpec};
use crate::{registry, ALL_SCHEMES};

/// One command-line flag.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--txs`.
    pub name: &'static str,
    /// What its value must be.
    pub value: Value,
    /// A flag that must be given beside this one.
    pub requires: Option<&'static str>,
    /// Its line in `evaluate --help`.
    pub help: &'static str,
}

/// What a flag's value must be.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// Nothing: the flag is a switch.
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// One of these words.
    OneOf(&'static [&'static str]),
    /// A name the function knows; the string says what a name is.
    Name(&'static str, fn(&str) -> bool),
    /// A comma-separated list of such names.
    List(&'static str, fn(&str) -> bool),
}

use Value::{Int, List, Name, OneOf, Switch};

/// No upper bound on an integer flag.
pub(crate) const MAX: u64 = u64::MAX;

impl Flag {
    /// The flag `name`, taking `value`.
    pub(crate) const fn new(name: &'static str, value: Value) -> Flag {
        Flag {
            name,
            value,
            requires: None,
            help: "",
        }
    }

    /// This flag, with its `--help` line.
    pub(crate) const fn help(mut self, help: &'static str) -> Flag {
        self.help = help;
        self
    }

    /// This flag, needing `other` beside it.
    pub(crate) const fn requires(mut self, other: &'static str) -> Flag {
        self.requires = Some(other);
        self
    }

    /// Checks a value against this declaration's range, words or names.
    fn check(&self, value: Option<&str>) -> Result<(), UsageError> {
        let (name, v) = (self.name, value.unwrap_or_default());
        let error = match self.value {
            Int(min, max) if !(min..=max).contains(&v.parse().unwrap_or(0)) => {
                let want = range(min, max);
                format!("invalid value {v} for {name} (expected {want})")
            }
            OneOf(words) if !words.contains(&v) => {
                let words = words.join(", ");
                format!("invalid value {v:?} for {name} (expected {words})")
            }
            Name(what, known) | List(what, known) => {
                let bad = match self.value {
                    List(..) => v.split(',').find(|n| !known(n)),
                    _ => Some(v).filter(|n| !known(n)),
                };
                match bad {
                    Some(n) => format!("unknown {what} {n:?} for {name}"),
                    None => return Ok(()),
                }
            }
            _ => return Ok(()),
        };
        Err(UsageError(error))
    }

    /// Its `evaluate --help` line.
    fn help_line(&self) -> String {
        let arg = match self.value {
            Switch => String::new(),
            Int(..) => "N".to_string(),
            OneOf(words) => words.join("|"),
            Name(what, _) => what.to_uppercase(),
            List(..) => "NAME[,NAME...]".to_string(),
        };
        let head = format!("  {} {arg}", self.name);
        let mut line = match head.len() {
            0..=30 => format!("{head:<32}{}", self.help),
            _ => format!("{head}\n{:32}{}", "", self.help),
        };
        if let Int(min, max) = self.value {
            if (min, max) != (0, MAX) {
                line += &format!("; {}", range(min, max));
            }
        }
        if let Some(other) = self.requires {
            line += &format!("; needs {other}");
        }
        line
    }
}

/// `min..=max` in words.
fn range(min: u64, max: u64) -> String {
    match max {
        MAX => format!("at least {min}"),
        _ => format!("{min}..={max}"),
    }
}

/// Any name: paths.
pub(crate) fn any(_: &str) -> bool {
    true
}

/// The flags every experiment takes.
pub const COMMON: &[Flag] = &[
    Flag::new("--txs", Int(1, MAX)).help("transaction budget (default: per experiment)"),
    Flag::new("--seed", Int(0, MAX)).help("workload generation seed (default 42)"),
    Flag::new("--jobs", Int(1, MAX)).help("worker threads (default: one per CPU)"),
    Flag::new("--json-dir", Name("dir", any)).help("report directory (default target/reports)"),
    Flag::new("--no-result-store", Switch).help("compute every cell fresh, record nothing"),
    Flag::new("--trace-events", Name("path", any)).help("write a JSONL event timeline here"),
];

/// `--cores`, within the core counts `SimConfig` models.
pub(crate) const CORES: Flag =
    Flag::new("--cores", Int(1, 255)).help("simulated cores (default 8)");

/// `--bench`.
pub(crate) const BENCH: Flag = Flag::new(
    "--bench",
    List("benchmark", |n| workload_by_name(n).is_some()),
)
.help("workloads (default Hash,TPCC,YCSB)");

/// `--scheme`.
pub(crate) const SCHEME: Flag = Flag::new("--scheme", List("scheme", |n| ALL_SCHEMES.contains(&n)))
    .help("schemes (default: all seven)");

/// `--torn-keep`, within one 256 B line.
pub(crate) const TORN_KEEP: Flag =
    Flag::new("--torn-keep", Int(0, silo_types::BUF_LINE_BYTES as u64))
        .help("bytes a torn line program keeps (default 64)");

/// `--battery-bytes`.
pub(crate) const BATTERY_BYTES: Flag = Flag::new("--battery-bytes", Int(0, MAX))
    .help("bytes the post-crash drain may write (default 65536)");

/// The `--torn-keep` default: a quarter of a 256 B line survives.
pub(crate) const DEFAULT_TORN_KEEP: u64 = 64;

/// The `--battery-bytes` default: ample — it covers the whole on-PM
/// buffer plus the crash records, so a correct scheme must not violate.
pub(crate) const DEFAULT_BATTERY_BYTES: u64 = 64 * 1024;

/// The schemes `--scheme` names, or every scheme.
pub(crate) fn schemes(line: &Line) -> Vec<String> {
    line.list(SCHEME.name)
        .unwrap_or_else(|| ALL_SCHEMES.iter().map(|s| s.to_string()).collect())
}

/// A command line no flag table accepts; the message names the token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The flags of one command line, each with its value unless a switch.
#[derive(Clone, Debug, Default)]
pub struct Line(Vec<(&'static str, Option<String>)>);

impl Line {
    /// Splits flag tokens into flags and values. A flag must be declared
    /// in some table, given once, and, unless a switch, followed by a
    /// value (an integer for an integer flag).
    pub(crate) fn split(tokens: &[String]) -> Result<Line, UsageError> {
        let specs = registry::all();
        let tables = COMMON.iter().chain(specs.iter().flat_map(|s| s.flags));
        let (mut line, mut tokens) = (Line::default(), tokens.iter());
        while let Some(tok) = tokens.next() {
            let fail = |message: String| Err(UsageError(message));
            let Some(flag) = tables.clone().find(|f| f.name == tok) else {
                if tok.starts_with("--") {
                    return fail(format!("unknown flag {tok}"));
                }
                return fail(format!("unexpected argument {tok:?}"));
            };
            if line.switch(tok) {
                return fail(format!("{tok} is given twice"));
            }
            let value = match flag.value {
                Switch => None,
                _ => match tokens.next().filter(|v| !v.starts_with("--")) {
                    Some(v) => Some(v.clone()),
                    None => return fail(format!("{tok} expects a value")),
                },
            };
            if let (Int(min, max), Some(v)) = (flag.value, &value) {
                if v.parse::<u64>().is_err() {
                    let want = range(min, max);
                    return fail(format!("invalid value {v:?} for {tok} (expected {want})"));
                }
            }
            line.0.push((flag.name, value));
        }
        Ok(line)
    }

    /// Whether the flag was given.
    pub fn switch(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// A flag's value.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| *n == name)?.1.as_deref()
    }

    /// An integer flag's value.
    pub fn int(&self, name: &str) -> Option<u64> {
        self.text(name)?.parse().ok()
    }

    /// A list flag's names.
    pub fn list(&self, name: &str) -> Option<Vec<String>> {
        Some(self.text(name)?.split(',').map(str::to_string).collect())
    }
}

/// A checked `evaluate <experiment|all> [flags]` command line.
pub struct Invocation {
    /// The experiments it runs: one, or every registered one for `all`.
    pub specs: Vec<ExperimentSpec>,
    /// Its flags.
    pub line: Line,
    argv: Vec<String>,
}

impl Invocation {
    /// Checks `argv` (program, experiment or `all`, flags): every flag
    /// must be in [`COMMON`] or a table of the experiments named, with a
    /// value that satisfies each of its declarations there and with the
    /// flag it requires beside it.
    pub fn parse(argv: &[String]) -> Result<Invocation, UsageError> {
        let name = argv.get(1).map_or("", String::as_str);
        let specs = if name == "all" {
            registry::all()
        } else {
            let unknown =
                || UsageError(format!("unknown experiment {name:?}; run `evaluate list`"));
            vec![registry::find(name).ok_or_else(unknown)?]
        };
        let line = Line::split(argv.get(2..).unwrap_or_default())?;
        for (name, value) in &line.0 {
            let tables = COMMON.iter().chain(specs.iter().flat_map(|s| s.flags));
            let decls: Vec<&Flag> = tables.filter(|f| f.name == *name).collect();
            let Some(first) = decls.first() else {
                let who = specs[0].name;
                return Err(UsageError(format!("{who} does not take {name}")));
            };
            for flag in &decls {
                flag.check(value.as_deref())?;
            }
            if let Some(other) = first.requires.filter(|r| !line.switch(r)) {
                return Err(UsageError(format!("{name} requires {other}")));
            }
        }
        let argv = argv.to_vec();
        Ok(Invocation { specs, line, argv })
    }

    /// `spec`'s defaults with the line's `--txs`, `--seed`, `--cores` and
    /// `--bench`; `extra` carries the whole line.
    pub fn params(&self, spec: &ExperimentSpec) -> ExpParams {
        let mut p = ExpParams::defaults(spec);
        let line = &self.line;
        p.txs = line.int("--txs").map_or(p.txs, |n| n as usize);
        p.seed = line.int("--seed").unwrap_or(p.seed);
        p.cores = line.int(CORES.name).map_or(p.cores, |n| n as usize);
        p.benches = line.list(BENCH.name).unwrap_or(p.benches);
        p.extra = self.argv.clone();
        p
    }
}

/// The flag tables as `evaluate --help` prints them: [`COMMON`], then
/// each experiment table under the experiments that share it.
pub fn help() -> String {
    let specs = registry::all();
    let names = |t: &[Flag]| t.iter().map(|f| f.name).collect::<Vec<_>>();
    let mut out = String::new();
    let mut shown = vec![COMMON];
    let mut section = |title: String, table: &[Flag]| {
        out += &format!("\n{title}:\n");
        for flag in table {
            out += &format!("{}\n", flag.help_line());
        }
    };
    section("Flags of every experiment".into(), COMMON);
    for spec in specs.iter().filter(|s| !s.flags.is_empty()) {
        if shown.iter().all(|t| names(t) != names(spec.flags)) {
            let sharing = specs.iter().filter(|s| names(s.flags) == names(spec.flags));
            let sharing: Vec<&str> = sharing.map(|s| s.name).collect();
            section(format!("Flags of {}", sharing.join(", ")), spec.flags);
            shown.push(spec.flags);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_flag_is_declared_once_but_fault() {
        let specs = registry::all();
        let tables: Vec<&[Flag]> = std::iter::once(COMMON)
            .chain(specs.iter().map(|s| s.flags))
            .collect();
        for table in &tables {
            let mut names: Vec<&str> = table.iter().map(|f| f.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), table.len(), "a table lists a flag twice");
        }
        for spec in &specs {
            let common = |f: &Flag| COMMON.iter().any(|c| c.name == f.name);
            assert!(
                !spec.flags.iter().any(common),
                "{} repeats COMMON",
                spec.name
            );
        }
        // Tables that share a flag share its declaration: one help line per
        // name, except `--fault`, whose two crash experiments differ.
        let mut helps: Vec<(&str, &str)> = tables
            .iter()
            .flat_map(|t| t.iter().map(|f| (f.name, f.help)))
            .collect();
        helps.sort_unstable();
        helps.dedup();
        for (name, _) in &helps {
            let n = helps.iter().filter(|(m, _)| m == name).count();
            assert_eq!(n, if *name == "--fault" { 2 } else { 1 }, "{name}");
        }
    }

    #[test]
    fn lines_split_into_flags_and_typed_values() {
        let line = Line::split(&argv("--txs 5 --no-corpus --bench Hash,TPCC --fault adr")).unwrap();
        assert_eq!(line.int("--txs"), Some(5));
        assert!(line.switch("--no-corpus") && !line.switch("--corpus"));
        assert_eq!(line.list("--bench").unwrap(), ["Hash", "TPCC"]);
        assert_eq!(line.text("--fault"), Some("adr"));
        assert_eq!(line.int("--seed"), None);
        for (tokens, message) in [
            ("--txs 5oo", "invalid value \"5oo\" for --txs"),
            ("--seed -1", "invalid value \"-1\" for --seed"),
            ("--seed", "--seed expects a value"),
            ("--txs --seed 4", "--txs expects a value"),
            ("--no-corpus --no-corpus", "--no-corpus is given twice"),
            ("--nope", "unknown flag --nope"),
            ("stray", "unexpected argument \"stray\""),
        ] {
            let err = Line::split(&argv(tokens)).unwrap_err();
            assert!(err.to_string().contains(message), "{tokens}: {err}");
        }
    }

    #[test]
    fn help_lists_every_declared_flag() {
        let help = help();
        for spec in registry::all() {
            for flag in COMMON.iter().chain(spec.flags) {
                assert!(help.contains(&format!("  {} ", flag.name)), "{}", flag.name);
            }
        }
    }
}
