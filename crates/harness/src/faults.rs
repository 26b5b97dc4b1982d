//! One fault language for every driver: a [`FaultSchedule`] of `(at,
//! Fault)` entries, applied to one group by [`Faults`] and written as one
//! `faults=` reproducer line. `at` is in the driver's clock: explored
//! steps for the model checker, nanoseconds after steady state for chaos,
//! fail-over and Table IV. This module is the only harness code that
//! crashes a node or plans a link.

use std::fmt;

use netsim::rng::{splitmix64, unit_f64};
use netsim::{FaultPlan, NodeId, PortId, SimDuration, SimTime, Simulation};

/// The longest window a schedule may name (a hold, a reorder window, a
/// jitter bound): 1 s of virtual time, a hundred times the seeded storm.
pub const MAX_WINDOW: SimDuration = SimDuration::from_millis(1000);

/// Refuses a window longer than [`MAX_WINDOW`], naming its token.
pub(crate) fn within_window(key: &str, d: SimDuration) -> Result<(), String> {
    if d > MAX_WINDOW {
        let n = d.as_nanos();
        return Err(format!(
            "{key}={n} is more than {MAX_WINDOW} of virtual time"
        ));
    }
    Ok(())
}

/// One fault on one group; `member` indexes the group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The member crashes, process and NIC, for the rest of the run.
    Kill(usize),
    /// The fabric switch crashes for the rest of the run.
    KillSwitch,
    /// Both directions of the member's switch link drop every frame.
    Partition {
        /// The member cut off.
        member: usize,
        /// How long the cut lasts.
        hold: SimDuration,
    },
    /// Every member's switch link, both directions, misbehaves.
    Storm(Storm),
}

/// A link storm: the same loss on every link, and duplication, reordering
/// and corruption scaled per direction from `seed`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Storm {
    /// Seeds each link's scale.
    pub seed: u64,
    /// Per-frame loss probability.
    pub loss: f64,
    /// Per-frame duplication probability, before the link's scale.
    pub duplicate: f64,
    /// Per-frame reordering probability, before the link's scale.
    pub reorder: f64,
    /// How far a reordered frame may be held back.
    pub reorder_window: SimDuration,
    /// Uniform extra delay bound added to every frame.
    pub jitter: SimDuration,
    /// Per-frame corruption probability, before the link's scale.
    pub corrupt: f64,
    /// How long the storm blows.
    pub hold: SimDuration,
}

impl Storm {
    /// The plan for `member`'s switch link, `reverse` the switch's side.
    fn link_plan(&self, member: usize, reverse: bool) -> FaultPlan {
        let mut s = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (((member as u64) << 1) | u64::from(reverse));
        let scale = 0.5 + unit_f64(splitmix64(&mut s));
        FaultPlan::new()
            .loss(self.loss)
            .duplicate(self.duplicate * scale)
            .reorder(self.reorder * scale, self.reorder_window)
            .jitter(self.jitter)
            .corrupt(self.corrupt * scale)
    }
}

/// One argument of an entry, in the unit its text gives.
enum Arg<'a> {
    Member(&'a mut usize),
    Seed(&'a mut u64),
    Probability(&'a mut f64),
    Ns(&'a mut SimDuration),
}

impl Arg<'_> {
    fn set(self, text: &str) -> Option<()> {
        match self {
            Arg::Member(m) => *m = text.parse().ok()?,
            Arg::Seed(s) => *s = text.parse().ok()?,
            Arg::Probability(p) => *p = text.parse().ok()?,
            Arg::Ns(d) => *d = SimDuration::from_nanos(text.parse().ok()?),
        }
        Some(())
    }
}

impl fmt::Display for Arg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Member(m) => m.fmt(f),
            Arg::Seed(s) => s.fmt(f),
            Arg::Probability(p) => p.fmt(f),
            Arg::Ns(d) => d.as_nanos().fmt(f),
        }
    }
}

impl Fault {
    /// The kind's name and its arguments, in the order the text writes
    /// them: the one table the writer, the reader, the range check and
    /// the shrinker all walk.
    fn args(&mut self) -> (&'static str, Vec<(&'static str, Arg<'_>)>) {
        match self {
            Fault::Kill(m) => ("kill", vec![("member", Arg::Member(m))]),
            Fault::KillSwitch => ("kill-switch", vec![]),
            Fault::Partition { member, hold } => (
                "partition",
                vec![("member", Arg::Member(member)), ("hold_ns", Arg::Ns(hold))],
            ),
            Fault::Storm(s) => (
                "storm",
                vec![
                    ("seed", Arg::Seed(&mut s.seed)),
                    ("loss", Arg::Probability(&mut s.loss)),
                    ("duplicate", Arg::Probability(&mut s.duplicate)),
                    ("reorder", Arg::Probability(&mut s.reorder)),
                    ("reorder_window_ns", Arg::Ns(&mut s.reorder_window)),
                    ("jitter_ns", Arg::Ns(&mut s.jitter)),
                    ("corrupt", Arg::Probability(&mut s.corrupt)),
                    ("hold_ns", Arg::Ns(&mut s.hold)),
                ],
            ),
        }
    }

    /// How long the fault lasts; a crash is instant.
    fn hold(&self) -> SimDuration {
        match *self {
            Fault::Partition { hold, .. } | Fault::Storm(Storm { hold, .. }) => hold,
            Fault::Kill(_) | Fault::KillSwitch => SimDuration::ZERO,
        }
    }
}

/// An entry's text after its `at`: the kind, then each argument as
/// `name=value`.
impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut fault = *self;
        let (kind, args) = fault.args();
        f.write_str(kind)?;
        args.iter()
            .try_for_each(|(name, a)| write!(f, " {name}={a}"))
    }
}

/// `(at, Fault)` entries sorted by `at`; entries at one instant apply in
/// the order given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    entries: Vec<(u64, Fault)>,
}

impl FaultSchedule {
    /// The schedule of `entries`, sorted by `at`.
    pub fn new(mut entries: Vec<(u64, Fault)>) -> FaultSchedule {
        entries.sort_by_key(|&(at, _)| at);
        FaultSchedule { entries }
    }

    /// The entries, in the order they apply.
    pub fn entries(&self) -> &[(u64, Fault)] {
        &self.entries
    }

    /// When the last fault is over: the latest `at` plus its hold.
    pub fn end(&self) -> u64 {
        let over = |&(at, f): &(u64, Fault)| at.saturating_add(f.hold().as_nanos());
        self.entries.iter().map(over).max().unwrap_or(0)
    }

    /// Refuses what a run of `members` members ending at `end`
    /// (exclusive, in the driver's clock) cannot take: an entry at or
    /// past `end`, a member outside the group, a window over
    /// [`MAX_WINDOW`] or a probability outside `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Names the offending token.
    pub fn check(&self, members: usize, end: u64) -> Result<(), String> {
        for &(at, mut fault) in &self.entries {
            if at >= end {
                return Err(format!("the fault at {at} is past the run's end ({end})"));
            }
            for (name, arg) in fault.args().1 {
                match arg {
                    Arg::Member(&mut m) if m >= members => {
                        return Err(format!("member={m} is not one of {members} members"))
                    }
                    Arg::Probability(&mut p) if !(0.0..=1.0).contains(&p) => {
                        return Err(format!("{name}={p} is not a probability in [0, 1]"))
                    }
                    Arg::Ns(&mut d) => within_window(name, d)?,
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The text form: `at kind name=value…` entries joined by `; `, `-`
    /// for none.
    pub fn encode(&self) -> String {
        let entries: Vec<String> = (self.entries.iter())
            .map(|(at, f)| format!("{at} {f}"))
            .collect();
        if entries.is_empty() {
            "-".to_owned()
        } else {
            entries.join("; ")
        }
    }

    /// Reads [`FaultSchedule::encode`]'s form: each entry's arguments by
    /// position, under the names the writer gives them. Ranges are
    /// [`FaultSchedule::check`]'s.
    ///
    /// # Errors
    ///
    /// Names the token it cannot read.
    pub fn decode(text: &str) -> Result<FaultSchedule, String> {
        if text == "-" {
            return Ok(FaultSchedule::default());
        }
        let entries = text
            .split(';')
            .map(decode_entry)
            .collect::<Result<_, _>>()?;
        Ok(FaultSchedule::new(entries))
    }

    /// Each schedule one step smaller, in the order both shrinkers try
    /// them: an entry dropped, one of its probabilities or windows zeroed,
    /// or its hold halved.
    pub fn smaller(&self) -> Vec<FaultSchedule> {
        let mut out = Vec::new();
        for i in 0..self.entries.len() {
            let mut dropped = self.entries.clone();
            dropped.remove(i);
            out.push(FaultSchedule { entries: dropped });
            for k in 0.. {
                let mut c = self.clone();
                match c.entries[i].1.args().1.into_iter().nth(k) {
                    None => break,
                    Some((_, Arg::Probability(p))) => *p = 0.0,
                    Some(("hold_ns", Arg::Ns(d))) => *d = *d / 2,
                    Some((_, Arg::Ns(d))) => *d = SimDuration::ZERO,
                    Some(_) => {}
                }
                if c != *self {
                    out.push(c);
                }
            }
        }
        out
    }
}

fn decode_entry(entry: &str) -> Result<(u64, Fault), String> {
    let words: Vec<&str> = entry.split_whitespace().collect();
    let [at, kind, given @ ..] = &words[..] else {
        return Err(format!("'{entry}' is not an entry `at kind name=value…`"));
    };
    let at: u64 = at.parse().map_err(|_| format!("bad fault instant {at}"))?;
    let kinds = [
        Fault::Kill(0),
        Fault::KillSwitch,
        Fault::Partition {
            member: 0,
            hold: SimDuration::ZERO,
        },
        Fault::Storm(Storm::default()),
    ];
    let mut fault = (kinds.into_iter())
        .find(|&(mut f)| f.args().0 == *kind)
        .ok_or_else(|| format!("unknown fault kind {kind}"))?;
    let mut given = given.iter();
    for (name, arg) in fault.args().1 {
        let word = given
            .next()
            .ok_or_else(|| format!("{kind} at {at} lacks {name}="))?;
        let value = (word.strip_prefix(name))
            .and_then(|v| v.strip_prefix('='))
            .ok_or_else(|| format!("{kind} at {at} takes {name}= where it has {word}"))?;
        arg.set(value).ok_or_else(|| format!("bad value {word}"))?;
    }
    match given.next() {
        Some(extra) => Err(format!("{kind} at {at} does not take {extra}")),
        None => Ok((at, fault)),
    }
}

/// A schedule being applied to one group. It remembers whom it killed:
/// a frozen dead member still reads as leader, and its code, if driven,
/// still sends, so a driver proposes to [`Faults::live`] only.
pub struct Faults {
    pending: std::vec::IntoIter<(u64, Fault)>,
    /// `Some(t0)`: `at` counts nanoseconds after `t0`; `None`: steps.
    origin: Option<SimTime>,
    group: Vec<NodeId>,
    live: Vec<NodeId>,
    /// The storm blowing, and when it ends.
    storm: Option<(Storm, SimTime)>,
    /// Partition windows `(member, from, until)` not yet over.
    windows: Vec<(usize, SimTime, SimTime)>,
    /// Whether the links' plans are stale.
    dirty: bool,
}

const PRIMARY: PortId = PortId::FIRST;

impl Faults {
    /// Starts applying `schedule` to `group` on a time clock from
    /// `origin`, or on the driver's steps with `None`.
    ///
    /// On a time clock each partition is a window in time from the start,
    /// on the links from the first apply: a partition is closed-open and
    /// `Simulation::run_until(t)` runs the events at `t`, so a window put
    /// on at its own first instant would let that instant's frames
    /// through. A partition-only plan draws nothing from the simulation's
    /// generator, so putting it on early changes no draw. On steps, a
    /// partition starts at its step's instant.
    pub fn new(schedule: &FaultSchedule, origin: Option<SimTime>, group: &[NodeId]) -> Faults {
        let (mut pending, mut windows) = (schedule.entries.clone(), Vec::new());
        if let Some(t0) = origin {
            pending.retain(|&(at, fault)| match fault {
                Fault::Partition { member, hold } => {
                    let from = t0 + SimDuration::from_nanos(at);
                    windows.push((member, from, from + hold));
                    false
                }
                _ => true,
            });
        }
        Faults {
            pending: pending.into_iter(),
            origin,
            group: group.to_vec(),
            live: group.to_vec(),
            storm: None,
            windows,
            dirty: true,
        }
    }

    /// The group's members the schedule has not killed.
    pub fn live(&self) -> &[NodeId] {
        &self.live
    }

    /// Applies every entry due at `now` in the driver's clock, ends a
    /// storm or partition whose hold ran out by `sim.now()`, and re-plans
    /// the group's switch links if either changed.
    pub fn apply(&mut self, sim: &mut Simulation, now: u64) {
        let t = sim.now();
        while let Some(&(at, fault)) = self.pending.as_slice().first().filter(|e| e.0 <= now) {
            self.pending.next();
            let from = self.origin.map_or(t, |t0| t0 + SimDuration::from_nanos(at));
            match fault {
                Fault::Kill(i) => {
                    sim.set_node_down(self.group[i], true);
                    self.live.retain(|&n| n != self.group[i]);
                }
                Fault::KillSwitch => sim.set_node_down(sim.peer_of(self.group[0], PRIMARY).0, true),
                Fault::Partition { member, hold } => self.windows.push((member, from, from + hold)),
                Fault::Storm(s) => self.storm = Some((s, from + s.hold)),
            }
            self.dirty |= !matches!(fault, Fault::Kill(_) | Fault::KillSwitch);
        }
        if self.storm.is_some_and(|(_, end)| end <= t) {
            (self.storm, self.dirty) = (None, true);
        }
        let open = self.windows.len();
        self.windows.retain(|&(_, _, until)| until > t);
        if std::mem::take(&mut self.dirty) || self.windows.len() != open {
            self.plan_links(sim);
        }
    }

    /// On a time clock, applies what is due now, then runs `sim` to
    /// `until`, stopping at each entry's instant and a storm's end before
    /// it to apply them; what falls at `until` itself is the next
    /// apply's.
    ///
    /// # Panics
    ///
    /// Panics on a schedule counted in steps.
    pub fn run_until(&mut self, sim: &mut Simulation, until: SimTime) {
        let t0 = (self.origin).expect("run_until runs a schedule on a time clock");
        loop {
            self.apply(sim, sim.now().saturating_duration_since(t0).as_nanos());
            let entry =
                (self.pending.as_slice().first()).map(|&(at, _)| t0 + SimDuration::from_nanos(at));
            match entry
                .into_iter()
                .chain(self.storm.map(|(_, end)| end))
                .min()
            {
                Some(next) if next < until => sim.run_until(next),
                _ => break,
            }
        }
        sim.run_until(until);
    }

    /// Puts the storm's plan, if one blows, with the member's partition
    /// windows on each member's switch link, both directions, or clears
    /// it when neither applies.
    fn plan_links(&self, sim: &mut Simulation) {
        for (i, &m) in self.group.iter().enumerate() {
            let (sw, swp) = sim.peer_of(m, PRIMARY);
            for (reverse, node, port) in [(false, m, PRIMARY), (true, sw, swp)] {
                let mut plan = self.storm.map(|(s, _)| s.link_plan(i, reverse));
                for &(_, from, until) in self.windows.iter().filter(|w| w.0 == i) {
                    plan = Some(plan.unwrap_or_default().partition(from, until));
                }
                match plan {
                    Some(plan) => sim.set_fault_plan(node, port, plan),
                    None => sim.clear_fault_plan(node, port),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosRun, ChaosSpec};
    use crate::explore::{leader_cut_at, ExploreSpec};
    use crate::runner::System;
    use proptest::prelude::*;
    use proptest::sample::Index;

    #[test]
    fn a_schedule_a_run_cannot_take_is_refused_by_its_token() {
        let chaos = |faults: &str, edits: &[(&str, &str)]| {
            let mut r = ChaosSpec::seeded(7, 3).on(System::P4ce, 3).to_repro();
            r.set("faults", faults);
            for &(key, value) in edits {
                r.set(key, value);
            }
            ChaosRun::from_repro(&r).map(drop)
        };
        let explore = |faults: &str| {
            let mut r = ExploreSpec::p4ce(3).to_repro(&Default::default());
            r.set("faults", faults);
            r.set("horizon", 896);
            ExploreSpec::from_repro(&r).map(drop)
        };
        let storm = |edit: &str| {
            let s = "0 storm seed=1 loss=0.5 duplicate=0 reorder=0 reorder_window_ns=0 \
                     jitter_ns=0 corrupt=0 hold_ns=5";
            let (key, _) = edit.split_once('=').expect("key=value");
            let at = s.find(&format!(" {key}=")).expect("a storm argument") + 1;
            let end = s[at..].find(' ').map_or(s.len(), |e| at + e);
            format!("{}{edit}{}", &s[..at], &s[end..])
        };
        let over = "1000000001";
        for (token, refused) in [
            ("crash", chaos("0 crash member=1", &[])),
            ("member=3", chaos("0 kill member=3", &[])),
            ("member=3", explore("0 partition member=3 hold_ns=1")),
            ("loss=1.5", chaos(&storm("loss=1.5"), &[])),
            ("loss=inf", chaos(&storm("loss=inf"), &[])),
            ("reorder=-inf", chaos(&storm("reorder=-inf"), &[])),
            ("corrupt=-0.1", chaos(&storm("corrupt=-0.1"), &[])),
            ("duplicate=NaN", chaos(&storm("duplicate=NaN"), &[])),
            (
                "hold_ns=1000000001",
                chaos("0 partition member=1 hold_ns=1000000001", &[]),
            ),
            (
                "jitter_ns=1000000001",
                chaos(&storm("jitter_ns=1000000001"), &[]),
            ),
            (
                "reorder_window_ns=1000000001",
                chaos(&storm("reorder_window_ns=1000000001"), &[]),
            ),
            ("drain_ns=1000000001", chaos("-", &[("drain_ns", over)])),
            (
                "propose_every_ns=1000000001",
                chaos("-", &[("propose_every_ns", over)]),
            ),
            ("1000000000", chaos("1000000000 kill member=1", &[])),
            ("896", explore("896 kill member=1")),
            (
                "propose_every_ns",
                chaos(
                    "0 partition member=1 hold_ns=1000000000",
                    &[("propose_every_ns", "1")],
                ),
            ),
            // What the writer writes is what the reader takes.
            ("hold_ns", chaos("0 kill member=1 hold_ns=5", &[])),
            ("member", chaos("0 kill member=1 member=2", &[])),
            ("hold_ns", chaos("0 partition member=1", &[])),
            ("member=x", chaos("0 kill member=x", &[])),
            ("soon", chaos("soon kill member=1", &[])),
            ("member", chaos("0 kill member", &[])),
        ] {
            let e = refused.expect_err(token);
            assert!(e.contains(token), "{token}: {e}");
        }
        // The edges are runnable.
        let second = "1000000000";
        for runnable in [
            chaos("-", &[]),
            chaos("999999999 kill-switch", &[]),
            chaos(&storm("loss=1"), &[]),
            chaos(&storm("reorder_window_ns=1000000000"), &[]),
            chaos(&storm("jitter_ns=1000000000"), &[]),
            chaos("-", &[("drain_ns", second)]),
            chaos("-", &[("propose_every_ns", second)]),
            explore("895 kill member=2"),
        ] {
            assert_eq!(runnable, Ok(()));
        }
    }

    /// A deployment's simulation and its one group, never run.
    fn cluster(n: usize) -> (Simulation, Vec<NodeId>) {
        let p4ce::Deployment { sim, members, .. } = p4ce::ClusterBuilder::new(n).build();
        (sim, members)
    }

    /// Whether each of `members`' links, both directions, carries a plan,
    /// and whether that plan partitions.
    fn plans(sim: &Simulation, members: &[NodeId]) -> Vec<[Option<bool>; 2]> {
        let partitioned = |plan: Option<&FaultPlan>| plan.map(|p| !p.partitions.is_empty());
        (members.iter())
            .map(|&m| {
                let (sw, swp) = sim.peer_of(m, PRIMARY);
                [sim.fault_plan(m, PRIMARY), sim.fault_plan(sw, swp)].map(partitioned)
            })
            .collect()
    }

    #[test]
    fn partition_lands_only_on_the_chosen_member() {
        let spec = ChaosSpec::seeded(7, 5);
        let (mut sim, members) = cluster(5);
        let t0 = sim.now();
        let mut faults = Faults::new(&spec.faults(), Some(t0), &members);
        faults.apply(&mut sim, 0);
        for (member, links) in plans(&sim, &members).into_iter().enumerate() {
            let cut = member == spec.partition_member;
            assert_eq!(links, [Some(cut); 2], "member {member}");
        }
        // The storm's end calms every link, the partition's included; what
        // falls at the end of a run is the next apply's.
        let end = t0 + spec.storm;
        faults.run_until(&mut sim, end);
        assert_eq!(plans(&sim, &members)[0], [Some(false); 2]);
        faults.apply(&mut sim, spec.storm.as_nanos());
        assert_eq!(plans(&sim, &members), vec![[None; 2]; 5]);
    }

    #[test]
    fn a_step_clock_starts_a_fault_at_its_step_and_forgets_whom_it_killed() {
        let (mut sim, members) = cluster(3);
        let mut entries = leader_cut_at(3).entries().to_vec();
        entries.push((3, Fault::Kill(1)));
        let mut faults = Faults::new(&FaultSchedule::new(entries), None, &members);
        faults.apply(&mut sim, 2);
        assert_eq!(plans(&sim, &members), vec![[None; 2]; 3]);
        faults.apply(&mut sim, 3);
        assert_eq!(
            plans(&sim, &members),
            [[Some(true); 2], [None; 2], [None; 2]]
        );
        assert_eq!(faults.live(), [members[0], members[2]]);
        let window = sim
            .fault_plan(members[0], PRIMARY)
            .expect("a plan")
            .partitions[0];
        assert_eq!(
            (window.from, window.until),
            (sim.now(), sim.now() + MAX_WINDOW)
        );
    }

    fn fault() -> impl Strategy<Value = Fault> {
        let ns = any::<u64>().prop_map(SimDuration::from_nanos);
        let p = || 0.0f64..1.0;
        let storm = (
            any::<u64>(),
            p(),
            p(),
            p(),
            ns.clone(),
            ns.clone(),
            p(),
            ns.clone(),
        );
        prop_oneof![
            (0usize..200).prop_map(Fault::Kill),
            Just(Fault::KillSwitch),
            (0usize..200, ns).prop_map(|(member, hold)| Fault::Partition { member, hold }),
            storm.prop_map(
                |(seed, loss, duplicate, reorder, rw, jitter, corrupt, hold)| {
                    Fault::Storm(Storm {
                        seed,
                        loss,
                        duplicate,
                        reorder,
                        reorder_window: rw,
                        jitter,
                        corrupt,
                        hold,
                    })
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every schedule reads back as it was written.
        #[test]
        fn a_schedule_round_trips_through_its_text(
            entries in proptest::collection::vec((any::<u64>(), fault()), 0..6),
        ) {
            let schedule = FaultSchedule::new(entries);
            prop_assert_eq!(FaultSchedule::decode(&schedule.encode()), Ok(schedule));
        }

        /// Neither the reader nor the range check panics, on any bytes or
        /// on the text form's own words in any order.
        #[test]
        fn decoding_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..80),
            words in proptest::collection::vec(any::<Index>(), 0..24),
        ) {
            const WORDS: [&str; 24] = [
                "0", "7", "18446744073709551615", "kill", "kill-switch", "partition", "storm",
                "member=0", "member=9", "hold_ns=1", "seed=3", "loss=0.5", "loss=NaN",
                "duplicate=2", "reorder=1", "reorder_window_ns=4", "jitter_ns=9",
                "corrupt=0", "=", ";", "-", " ", "member", "hold_ns=18446744073709551615",
            ];
            let soup: Vec<&str> = words.iter().map(|w| WORDS[w.index(WORDS.len())]).collect();
            for text in [String::from_utf8_lossy(&bytes).into_owned(), soup.join(" ")] {
                if let Ok(schedule) = FaultSchedule::decode(&text) {
                    let _ = schedule.check(3, 1_000);
                    let _ = schedule.end();
                    let _ = schedule.smaller();
                }
            }
        }
    }
}
