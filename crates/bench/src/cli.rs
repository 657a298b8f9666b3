//! Shared command-line conventions for the bench binaries.
//!
//! Every harness bin used to hand-roll the same three lines of positional
//! parsing (`args.get(i).and_then(parse).unwrap_or(default)`) — which
//! silently swallowed typos: `fig8_dynamic_strategies 50O` ran the default
//! 500 steps without a word. This module centralizes the convention and
//! makes it strict, matching `afmm-trace`: a malformed or unexpected
//! argument prints the usage string to stderr and exits with code **2**
//! (0 = success, 1 = gate/validation failure, 2 = usage or I/O error).
//!
//! The parsing core returns `Result` so it stays unit-testable; binaries
//! use the `_or_exit` surface.

/// Positional-argument cursor over `std::env::args`.
pub struct Args {
    /// Binary name for error prefixes.
    name: &'static str,
    /// One-line usage, printed on any parse error.
    usage: &'static str,
    argv: Vec<String>,
    next: usize,
}

/// A parse failure: which argument, what it was, what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    pub what: String,
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

impl Args {
    /// Capture the process arguments (program name dropped).
    pub fn parse(name: &'static str, usage: &'static str) -> Self {
        Self::from_vec(name, usage, std::env::args().skip(1).collect())
    }

    /// Testable constructor.
    pub fn from_vec(name: &'static str, usage: &'static str, argv: Vec<String>) -> Self {
        Args {
            name,
            usage,
            argv,
            next: 0,
        }
    }

    /// Next positional as `usize`, or `default` when absent.
    pub fn opt_usize(&mut self, what: &str, default: usize) -> Result<usize, UsageError> {
        match self.argv.get(self.next) {
            None => Ok(default),
            Some(raw) => {
                self.next += 1;
                raw.parse().map_err(|_| UsageError {
                    what: format!("invalid {what} \"{raw}\""),
                })
            }
        }
    }

    /// Reject any unconsumed arguments.
    pub fn finish(&self) -> Result<(), UsageError> {
        match self.argv.get(self.next) {
            None => Ok(()),
            Some(extra) => Err(UsageError {
                what: format!("unexpected argument \"{extra}\""),
            }),
        }
    }

    /// Print `err` + usage to stderr and exit 2.
    pub fn die(&self, err: &UsageError) -> ! {
        eprintln!(
            "{}: {}\nusage: {} {}",
            self.name, err.what, self.name, self.usage
        );
        std::process::exit(2);
    }

    /// [`Args::opt_usize`] with the exit-2 convention.
    pub fn opt_usize_or_exit(&mut self, what: &str, default: usize) -> usize {
        match self.opt_usize(what, default) {
            Ok(v) => v,
            Err(e) => self.die(&e),
        }
    }

    /// [`Args::finish`] with the exit-2 convention.
    pub fn finish_or_exit(&self) {
        if let Err(e) = self.finish() {
            self.die(&e);
        }
    }
}

/// For binaries that take no arguments at all: enforce it, exit 2
/// otherwise.
pub fn no_args(name: &'static str) {
    Args::parse(name, "(no arguments)").finish_or_exit();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::from_vec(
            "test-bin",
            "[a] [b]",
            v.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn defaults_when_absent() {
        let mut a = args(&[]);
        assert_eq!(a.opt_usize("steps", 120).unwrap(), 120);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn parses_in_order() {
        let mut a = args(&["60", "20000"]);
        assert_eq!(a.opt_usize("steps", 120).unwrap(), 60);
        assert_eq!(a.opt_usize("bodies", 8000).unwrap(), 20_000);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn rejects_malformed() {
        let mut a = args(&["50O"]);
        let err = a.opt_usize("steps", 120).unwrap_err();
        assert!(err.what.contains("invalid steps"), "{err}");
        assert!(err.what.contains("50O"), "{err}");
    }

    #[test]
    fn rejects_extras() {
        let mut a = args(&["60", "stray"]);
        assert_eq!(a.opt_usize("steps", 120).unwrap(), 60);
        let err = a.finish().unwrap_err();
        assert!(err.what.contains("stray"), "{err}");
    }

    #[test]
    fn partial_consumption_then_finish() {
        let mut a = args(&["60"]);
        assert_eq!(a.opt_usize("steps", 1).unwrap(), 60);
        assert_eq!(a.opt_usize("bodies", 2).unwrap(), 2);
        assert_eq!(a.opt_usize("more", 3).unwrap(), 3);
        assert!(a.finish().is_ok());
    }
}
