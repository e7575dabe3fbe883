//! Minimal flag parsing (no external dependency).

use std::collections::HashMap;

/// Parsed `--key value` flags plus boolean switches.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse `srm SUB`'s arguments, treating every `--key` followed by a
    /// non-flag token as a valued flag and everything else as a switch.
    /// `usage` is the subcommand's help text and the one list of its
    /// flags: a `--key` it does not name is a usage error, so a mistyped
    /// flag cannot silently run something else.
    pub fn parse(sub: &str, usage: &str, argv: &[String]) -> Result<Self, String> {
        let named = |name: &str| {
            let mut words = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            words.any(|word| word.strip_prefix("--") == Some(name))
        };
        let mut flags = Flags::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let Some(name) = token.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{token}`"));
            };
            if !named(name) {
                return Err(format!("unknown flag `{token}` for `srm {sub}` (see `srm {sub} --help`)"));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                flags.values.insert(name.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                flags.switches.push(name.to_string());
                i += 1;
            }
        }
        Ok(flags)
    }

    /// Valued flag lookup with parsing.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| format!("--{name} {raw}: {e}")),
        }
    }

    /// Valued flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Raw string flag.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Boolean switch presence.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The `--pipeline` / `--read-ahead K` pair.  Read-ahead hints ride on
    /// pipelined reads, so a depth without `--pipeline` would be silently
    /// ignored: a usage error instead.
    pub fn overlap(&self) -> Result<(bool, usize), String> {
        let pipeline = self.has("pipeline");
        let read_ahead: usize = self.get_or("read-ahead", 0)?;
        if read_ahead > 0 && !pipeline {
            return Err(format!("--read-ahead {read_ahead} needs --pipeline"));
        }
        Ok((pipeline, read_ahead))
    }

    /// The `--formation F` / `--threads N` pair: the formation's name and
    /// the thread count.  Only `parload` sorts on threads — `--threads N`
    /// alone implies it — so a count under `load` or `rs` would be
    /// silently ignored: a usage error instead.
    pub fn formation(&self) -> Result<(&str, Option<usize>), String> {
        let threads: Option<usize> = self.get("threads")?;
        let implied = if threads.is_some() { "parload" } else { "load" };
        let formation = self.get_str("formation").unwrap_or(implied);
        match threads {
            Some(n) if formation != "parload" => {
                Err(format!("--threads {n} needs --formation parload"))
            }
            _ => Ok((formation, threads)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "  srm test [--records N] [--verify] [--algo A] [--d D]
           [--pipeline] [--read-ahead K] [--formation F] [--threads N]";

    fn parse(s: &str) -> Flags {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Flags::parse("test", USAGE, &argv).unwrap()
    }

    #[test]
    fn read_ahead_without_pipeline_is_a_usage_error() {
        assert_eq!(parse("--pipeline --read-ahead 3").overlap(), Ok((true, 3)));
        assert_eq!(parse("--pipeline").overlap(), Ok((true, 0)));
        assert_eq!(parse("--read-ahead 0").overlap(), Ok((false, 0)));
        let err = parse("--read-ahead 3").overlap().unwrap_err();
        assert!(err.contains("needs --pipeline"), "{err}");
    }

    #[test]
    fn threads_without_parload_is_a_usage_error() {
        assert_eq!(parse("").formation(), Ok(("load", None)));
        assert_eq!(parse("--formation rs").formation(), Ok(("rs", None)));
        assert_eq!(parse("--threads 4").formation(), Ok(("parload", Some(4))));
        assert_eq!(parse("--formation parload --threads 2").formation(), Ok(("parload", Some(2))));
        for ignored in ["rs", "load"] {
            let err = parse(&format!("--threads 4 --formation {ignored}")).formation().unwrap_err();
            assert!(err.contains("needs --formation parload"), "{err}");
        }
    }

    #[test]
    fn values_and_switches() {
        let f = parse("--records 1000 --verify --algo srm");
        assert_eq!(f.get::<u64>("records").unwrap(), Some(1000));
        assert_eq!(f.get_str("algo"), Some("srm"));
        assert!(f.has("verify"));
        assert!(!f.has("missing"));
    }

    #[test]
    fn defaults() {
        let f = parse("");
        assert_eq!(f.get_or("d", 4usize).unwrap(), 4);
    }

    #[test]
    fn bad_value_is_an_error() {
        let f = parse("--records abc");
        assert!(f.get::<u64>("records").is_err());
    }

    #[test]
    fn positional_rejected() {
        let argv = vec!["stray".to_string()];
        assert!(Flags::parse("test", USAGE, &argv).is_err());
    }
}
