//! Minimal replayable reproducers, serialized as seed files.
//!
//! Both the model checker ([`crate::explore`]) and the chaos harness
//! ([`crate::chaos`]) reduce a failing run to a handful of scalars; this
//! module is the shared container, its line-oriented `key=value` text
//! format, and the [`Header`] both kinds write first. The format is
//! deliberately trivial — no external parser, no versioned schema,
//! greppable in CI logs — because a reproducer's whole job is to survive
//! being copy-pasted out of a failure report:
//!
//! ```text
//! # p4ce reproducer v1
//! kind=explore
//! system=p4ce
//! members=3
//! groups=1
//! seed=42
//! p4ce_enabled=true
//! faults=40 partition member=0 hold_ns=1000000000
//! decisions=3:1,17:2
//! ```
//!
//! Lines starting with `#` and blank lines are ignored. Keys are unique;
//! order is preserved on encode so diffs between reproducers stay
//! readable.

use std::fmt::Display;

use crate::faults::FaultSchedule;
use crate::runner::System;

/// What both reproducer kinds write first, in this order: the deployment
/// and the faults it takes (the `faults=` line, in the driver's clock).
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// System under test.
    pub system: System,
    /// Members per group.
    pub members: usize,
    /// Consensus groups behind the switch.
    pub groups: u16,
    /// Simulation seed.
    pub seed: u64,
    /// P4CE only: whether the fabric runs the P4CE program.
    pub p4ce_enabled: bool,
    /// The faults, as [`FaultSchedule::encode`] writes them.
    pub faults: FaultSchedule,
}

impl Header {
    /// A `kind` reproducer holding the header; the kind's own keys follow.
    pub fn to_repro(&self, kind: &str) -> Repro {
        let mut r = Repro::new(kind);
        r.set("system", self.system.name());
        r.set("members", self.members);
        r.set("groups", self.groups);
        r.set("seed", self.seed);
        r.set("p4ce_enabled", self.p4ce_enabled);
        r.set("faults", self.faults.encode());
        r
    }

    /// Reads the header of `r`, a reproducer of `written`'s kind that may
    /// hold only the keys `written` holds.
    ///
    /// # Errors
    ///
    /// Reports a wrong kind, an unknown key, a missing or malformed
    /// header key, and a deployment [`System::check_shape`] refuses.
    pub fn from_repro(r: &Repro, written: &Repro) -> Result<Header, String> {
        if r.kind != written.kind {
            return Err(format!("expected kind={}, got {}", written.kind, r.kind));
        }
        r.check_keys(written)?;
        let h = Header {
            system: r.parse("system")?,
            members: r.parse("members")?,
            groups: r.parse("groups")?,
            seed: r.parse("seed")?,
            p4ce_enabled: r.parse("p4ce_enabled")?,
            faults: FaultSchedule::decode(&r.parse::<String>("faults")?)?,
        };
        h.system.check_shape(h.members, usize::from(h.groups))?;
        Ok(h)
    }
}

/// A decoded reproducer: its kind plus ordered `key=value` fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// What the reproducer replays (`"explore"` or `"chaos"`).
    pub kind: String,
    fields: Vec<(String, String)>,
}

impl Repro {
    /// An empty reproducer of the given kind.
    pub fn new(kind: &str) -> Repro {
        Repro {
            kind: kind.to_owned(),
            fields: Vec::new(),
        }
    }

    /// Sets (or replaces) a field.
    pub fn set(&mut self, key: &str, value: impl Display) {
        let value = value.to_string();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_owned(), value));
        }
    }

    /// The raw value of a field, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A field parsed to any `FromStr` type.
    ///
    /// # Errors
    ///
    /// Reports a missing key or an unparseable value.
    pub fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key).ok_or_else(|| format!("missing key {key}"))?;
        raw.parse()
            .map_err(|_| format!("bad value for {key}: {raw}"))
    }

    /// Refuses a key `written` does not carry: a reader takes only the
    /// keys its writer writes, so a mistyped key is an error, not a
    /// default.
    ///
    /// # Errors
    ///
    /// Names the first such key.
    pub fn check_keys(&self, written: &Repro) -> Result<(), String> {
        match self.fields.iter().find(|(k, _)| written.get(k).is_none()) {
            Some((k, _)) => Err(format!("unknown key {k}")),
            None => Ok(()),
        }
    }

    /// Serializes to the line-oriented text format.
    pub fn encode(&self) -> String {
        let mut out = String::from("# p4ce reproducer v1\n");
        out.push_str(&format!("kind={}\n", self.kind));
        for (k, v) in &self.fields {
            out.push_str(&format!("{k}={v}\n"));
        }
        out
    }

    /// Parses the text format back.
    ///
    /// # Errors
    ///
    /// Reports malformed lines, duplicate keys, or a missing `kind`.
    pub fn decode(text: &str) -> Result<Repro, String> {
        let mut kind = None;
        let mut fields: Vec<(String, String)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(format!("line {}: expected key=value", lineno + 1));
            };
            let (k, v) = (k.trim(), v.trim());
            if k == "kind" {
                if kind.is_some() {
                    return Err("duplicate kind".to_owned());
                }
                kind = Some(v.to_owned());
            } else {
                if fields.iter().any(|(fk, _)| fk == k) {
                    return Err(format!("duplicate key {k}"));
                }
                fields.push((k.to_owned(), v.to_owned()));
            }
        }
        Ok(Repro {
            kind: kind.ok_or("missing kind")?,
            fields,
        })
    }
}

/// Encodes sparse schedule decisions (`branching index → choice`) as
/// `idx:choice` pairs joined by commas; empty map encodes as `-`.
pub fn encode_decisions(decisions: &std::collections::BTreeMap<u32, u32>) -> String {
    if decisions.is_empty() {
        return "-".to_owned();
    }
    decisions
        .iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses the [`encode_decisions`] format.
///
/// # Errors
///
/// Reports malformed pairs.
pub fn decode_decisions(text: &str) -> Result<std::collections::BTreeMap<u32, u32>, String> {
    let mut out = std::collections::BTreeMap::new();
    if text == "-" || text.is_empty() {
        return Ok(out);
    }
    for pair in text.split(',') {
        let Some((i, c)) = pair.split_once(':') else {
            return Err(format!("bad decision pair {pair}"));
        };
        let i: u32 = i.parse().map_err(|_| format!("bad index {i}"))?;
        let c: u32 = c.parse().map_err(|_| format!("bad choice {c}"))?;
        out.insert(i, c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn round_trips_fields_in_order() {
        let mut r = Repro::new("explore");
        r.set("seed", 42u64);
        r.set("system", "p4ce");
        r.set("seed", 43u64); // replace, not duplicate
        let text = r.encode();
        let back = Repro::decode(&text).expect("round trip");
        assert_eq!(back, r);
        assert_eq!(back.parse::<u64>("seed").expect("seed"), 43);
        assert!(back.parse::<u64>("missing").is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Repro::decode("kind=a\nkind=b").is_err(), "duplicate kind");
        assert!(Repro::decode("no equals sign").is_err());
        assert!(Repro::decode("a=1").is_err(), "missing kind");
        assert!(Repro::decode("kind=a\nx=1\nx=2").is_err(), "duplicate key");
    }

    #[test]
    fn decisions_round_trip() {
        let mut d = BTreeMap::new();
        assert_eq!(encode_decisions(&d), "-");
        assert_eq!(decode_decisions("-").expect("empty"), d);
        d.insert(3, 1);
        d.insert(17, 2);
        let text = encode_decisions(&d);
        assert_eq!(text, "3:1,17:2");
        assert_eq!(decode_decisions(&text).expect("pairs"), d);
        assert!(decode_decisions("3-1").is_err());
    }
}
