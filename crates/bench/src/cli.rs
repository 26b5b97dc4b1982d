//! The one argument parser of `p4ce-bench`: a subcommand, then only
//! the flags that subcommand reads. Anything else — an unknown
//! subcommand, an unknown or misplaced flag, a missing or malformed
//! value — is an error the caller turns into the usage text and exit
//! status 2, so a typo can never silently change what runs.

/// Printed on stderr after any parse error.
pub const USAGE: &str = "\
usage: p4ce-bench <subcommand> [flags]
  fig5 | fig7 | maxrate | table4 | p4xos
  fig6      [--trace [PATH]]          PATH defaults to fig6_trace.json
  groups    [--quick] [--threads N]
  failover  [--quick] [--seed N] [--csv PATH] [--trace PATH]
  ablation  <ack-drop|credit-mode|verb-cost>
  reproduce [--check] [TABLE...]      regenerate (or diff) results/TABLE.md; default all nine";

/// The nine paper artefacts committed under `results/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    Fig5,
    Maxrate,
    Fig6,
    Fig7,
    Table4,
    AckDrop,
    CreditMode,
    VerbCost,
    P4xos,
}

/// Every table with its file stem under `results/`, in the order
/// `results/README.md` lists them.
pub const TABLES: [(Table, &str); 9] = [
    (Table::Fig5, "fig5_goodput"),
    (Table::Maxrate, "maxrate_consensus"),
    (Table::Fig6, "fig6_latency_throughput"),
    (Table::Fig7, "fig7_burst_latency"),
    (Table::Table4, "table4_failover"),
    (Table::AckDrop, "ablation_ack_drop"),
    (Table::CreditMode, "ablation_credit_mode"),
    (Table::VerbCost, "ablation_verb_cost"),
    (Table::P4xos, "related_p4xos"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Print one table.
    Table(Table),
    /// E9: the sharded groups sweep.
    Groups,
    /// E10: the leader-kill failover sweep.
    Failover,
    /// Regenerate or check `results/*.md`.
    Reproduce,
}

/// Every subcommand with the flags it reads.
const COMMANDS: [(&str, Command, &[&str]); 12] = [
    ("fig5", Command::Table(Table::Fig5), &[]),
    ("fig6", Command::Table(Table::Fig6), &["--trace"]),
    ("fig7", Command::Table(Table::Fig7), &[]),
    ("maxrate", Command::Table(Table::Maxrate), &[]),
    ("table4", Command::Table(Table::Table4), &[]),
    ("p4xos", Command::Table(Table::P4xos), &[]),
    ("ablation ack-drop", Command::Table(Table::AckDrop), &[]),
    (
        "ablation credit-mode",
        Command::Table(Table::CreditMode),
        &[],
    ),
    ("ablation verb-cost", Command::Table(Table::VerbCost), &[]),
    ("groups", Command::Groups, &["--quick", "--threads"]),
    (
        "failover",
        Command::Failover,
        &["--quick", "--seed", "--csv", "--trace"],
    ),
    ("reproduce", Command::Reproduce, &["--check"]),
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub command: Command,
    pub quick: bool,
    pub threads: Option<usize>,
    pub seed: Option<u64>,
    pub csv: Option<String>,
    pub trace: Option<String>,
    pub check: bool,
    /// `reproduce`'s selection; empty means all nine.
    pub tables: Vec<Table>,
}

fn value<'a>(flag: &str, word: Option<&'a str>) -> Result<&'a str, String> {
    word.filter(|w| !w.starts_with("--"))
        .ok_or_else(|| format!("{flag} takes a value"))
}

fn number<T: std::str::FromStr>(flag: &str, word: Option<&str>) -> Result<T, String> {
    let text = value(flag, word)?;
    text.parse()
        .map_err(|_| format!("{flag} takes a number, got '{text}'"))
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut words = argv.iter().map(String::as_str).peekable();
    let mut name = words.next().ok_or("missing subcommand")?.to_owned();
    if name == "ablation" {
        name = format!("ablation {}", words.next().unwrap_or("<which?>"));
    }
    let &(_, command, flags) = COMMANDS
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'"))?;
    let mut args = Args {
        command,
        quick: false,
        threads: None,
        seed: None,
        csv: None,
        trace: None,
        check: false,
        tables: Vec::new(),
    };
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            let table = TABLES.iter().find(|(_, stem)| *stem == word);
            match (command, table) {
                (Command::Reproduce, Some(&(t, _))) => args.tables.push(t),
                (Command::Reproduce, None) => return Err(format!("unknown table '{word}'")),
                _ => return Err(format!("unexpected argument '{word}'")),
            }
            continue;
        }
        if !flags.contains(&word) {
            return Err(format!("{name} does not take {word}"));
        }
        match word {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--threads" => {
                args.threads = match number(word, words.next())? {
                    0 => return Err("--threads takes a positive number".to_owned()),
                    n => Some(n),
                }
            }
            "--seed" => args.seed = Some(number(word, words.next())?),
            "--csv" => args.csv = Some(value(word, words.next())?.to_owned()),
            "--trace" => {
                // Only fig6 has a default to fall back on.
                let path = match words.next_if(|w| !w.starts_with("--")) {
                    Some(path) => path,
                    None if command == Command::Table(Table::Fig6) => "fig6_trace.json",
                    None => return Err("--trace takes a value".to_owned()),
                };
                args.trace = Some(path.to_owned());
            }
            _ => unreachable!("every flag in COMMANDS is parsed above"),
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&argv)
    }

    #[test]
    fn flags_land_in_their_fields() {
        let args = parse_words("groups --threads 4 --quick").expect("valid");
        assert_eq!((args.quick, args.threads), (true, Some(4)));

        let args =
            parse_words("failover --quick --seed 7 --csv t.csv --trace t.json").expect("valid");
        assert_eq!((args.quick, args.seed), (true, Some(7)));
        assert_eq!(args.csv.as_deref(), Some("t.csv"));
        assert_eq!(args.trace.as_deref(), Some("t.json"));

        // fig6's --trace is honoured anywhere, with or without a path.
        let trace = |line| parse_words(line).expect("valid").trace;
        assert_eq!(trace("fig6"), None);
        assert_eq!(trace("fig6 --trace").as_deref(), Some("fig6_trace.json"));
        assert_eq!(trace("fig6 --trace out.json").as_deref(), Some("out.json"));

        let args =
            parse_words("reproduce --check fig7_burst_latency table4_failover").expect("valid");
        assert!(args.check);
        assert_eq!(args.tables, vec![Table::Fig7, Table::Table4]);
    }

    #[test]
    fn what_would_silently_run_something_else_is_rejected() {
        for line in [
            // unknown subcommand
            "",
            "fig8",
            "groups_sweep",
            "ablation",
            "ablation parser",
            "--quick",
            // unknown flag, stray word
            "groups --thread 4",
            "groups --verbose",
            "fig5 extra",
            "failover out.csv",
            "reproduce fig8",
            // missing or malformed value
            "groups --threads",
            "groups --threads x",
            "groups --threads 0",
            "groups --threads -1",
            "groups --threads --quick",
            "failover --seed",
            "failover --seed seven",
            "failover --seed 1.5",
            "failover --csv",
            "failover --csv --quick",
            "failover --trace",
            "failover --trace --quick",
        ] {
            assert!(parse_words(line).is_err(), "'{line}' must not parse");
        }
    }

    #[test]
    fn every_subcommand_accepts_only_the_flags_it_reads() {
        let spelled = [
            ("--quick", "--quick"),
            ("--threads", "--threads 2"),
            ("--seed", "--seed 7"),
            ("--csv", "--csv out.csv"),
            ("--trace", "--trace out.json"),
            ("--check", "--check"),
        ];
        for (name, command, flags) in COMMANDS {
            let bare = parse_words(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(bare.command, command, "{name}");
            for (flag, words) in spelled {
                let parsed = parse_words(&format!("{name} {words}"));
                assert_eq!(
                    parsed.is_ok(),
                    flags.contains(&flag),
                    "{name} {words}: {parsed:?}"
                );
            }
        }
    }
}
