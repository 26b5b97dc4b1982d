//! E10 — failover attribution: leader kills swept over kill timing and
//! fault storms, each outage telescoped into the five-phase budget of
//! [`crate::failover`].
//!
//! Where Table IV (E5) reports coarse detection/recovery pairs, E10
//! answers ROADMAP item 4's production questions: the full unavailability
//! window (last decide → first decide), which phase every millisecond of
//! it belongs to, and what the decided-throughput timeline did while the
//! switch reconfigured.

use netsim::SimDuration;

use crate::chaos::ChaosSpec;
use crate::failover::{run_failover, run_failover_sharded, FailoverConfig, FailoverOutcome};
use crate::report::{fmt_f64, TableRow};

/// One leader-kill scenario of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Scenario label for the table.
    pub label: &'static str,
    /// The failover configuration.
    pub cfg: FailoverConfig,
    /// `Some(groups)` runs the sharded variant (group 0's leader dies).
    pub groups: Option<usize>,
}

impl Scenario {
    /// Runs the scenario.
    pub fn run(&self) -> FailoverOutcome {
        match self.groups {
            Some(g) => run_failover_sharded(&self.cfg, g),
            None => run_failover(&self.cfg),
        }
    }
}

/// The scenario sweep: kill timing × storms × sharding. `quick` is the
/// CI smoke (three scenarios); the full sweep crosses three seeds with
/// three kill offsets plus storm and sharded variants.
pub fn configs(quick: bool) -> Vec<Scenario> {
    let base = FailoverConfig {
        observe_for: SimDuration::from_millis(80),
        ..FailoverConfig::default()
    };
    if quick {
        return vec![
            Scenario {
                label: "clean kill",
                cfg: base,
                groups: None,
            },
            Scenario {
                label: "kill + storm",
                cfg: FailoverConfig {
                    chaos: Some(ChaosSpec::seeded(7, base.members)),
                    observe_for: SimDuration::from_millis(100),
                    ..base
                },
                groups: None,
            },
            Scenario {
                label: "sharded kill (2 groups)",
                cfg: base,
                groups: Some(2),
            },
        ];
    }
    let mut out = Vec::new();
    for seed in [41, 42, 43] {
        for kill_ms in [10, 20, 35] {
            out.push(Scenario {
                label: "clean kill",
                cfg: FailoverConfig {
                    seed,
                    kill_after: SimDuration::from_millis(kill_ms),
                    ..base
                },
                groups: None,
            });
        }
        out.push(Scenario {
            label: "kill + storm",
            cfg: FailoverConfig {
                seed,
                chaos: Some(ChaosSpec::seeded(seed, base.members)),
                observe_for: SimDuration::from_millis(100),
                ..base
            },
            groups: None,
        });
        out.push(Scenario {
            label: "sharded kill (2 groups)",
            cfg: FailoverConfig { seed, ..base },
            groups: Some(2),
        });
    }
    out
}

/// One row of the E10 table: a scenario's telescoped budget plus the
/// throughput-dip shape.
#[derive(Debug, Clone, PartialEq)]
pub struct E10Row {
    /// Scenario label.
    pub scenario: &'static str,
    /// Simulation seed.
    pub seed: u64,
    /// Kill offset after steady state, ms.
    pub kill_after_ms: f64,
    /// Total unavailability window, ms.
    pub unavailability_ms: f64,
    /// Phase 1: failure detection, ms.
    pub detection_ms: f64,
    /// Phase 2: election, ms.
    pub election_ms: f64,
    /// Phase 3: log fence, ms (zero for P4CE by design).
    pub fence_ms: f64,
    /// Phase 4: switch re-acceleration, ms.
    pub reaccel_ms: f64,
    /// Phase 5: to the successor's first decision, ms.
    pub first_decide_ms: f64,
    /// Decided-throughput dip depth, percent of steady rate.
    pub dip_depth_pct: f64,
    /// Time from the kill to ≥ 90% of steady throughput, ms (`None` if
    /// not recovered within the window).
    pub recovery_ms: Option<f64>,
}

impl TableRow for E10Row {
    fn headers() -> Vec<&'static str> {
        vec![
            "scenario",
            "seed",
            "kill_ms",
            "unavail_ms",
            "detect_ms",
            "elect_ms",
            "fence_ms",
            "reaccel_ms",
            "decide_ms",
            "dip",
            "recovery_ms",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.to_owned(),
            self.seed.to_string(),
            fmt_f64(self.kill_after_ms),
            fmt_f64(self.unavailability_ms),
            fmt_f64(self.detection_ms),
            fmt_f64(self.election_ms),
            fmt_f64(self.fence_ms),
            fmt_f64(self.reaccel_ms),
            fmt_f64(self.first_decide_ms),
            format!("{:.1}%", self.dip_depth_pct),
            self.recovery_ms.map_or("-".to_owned(), fmt_f64),
        ]
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Flattens an outcome into its table row.
///
/// # Panics
///
/// Panics if the budget does not reconcile — the sum of the five phase
/// columns must equal `unavailability_ms` exactly (same nanosecond
/// arithmetic, so the check is exact, not within-epsilon).
pub fn row(scenario: &Scenario, out: &FailoverOutcome) -> E10Row {
    assert!(
        out.budget.reconciles(),
        "budget must telescope: {:?}",
        out.budget
    );
    let phase = |name: &str| {
        out.budget
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| ms(p.duration()))
    };
    E10Row {
        scenario: scenario.label,
        seed: scenario.cfg.seed,
        kill_after_ms: ms(scenario.cfg.kill_after),
        unavailability_ms: ms(out.budget.unavailability()),
        detection_ms: phase("detection"),
        election_ms: phase("election"),
        fence_ms: phase("log fence"),
        reaccel_ms: phase("switch re-acceleration"),
        first_decide_ms: phase("first decide"),
        dip_depth_pct: out.dip.map_or(0.0, |d| d.dip_depth_pct),
        recovery_ms: out.dip.and_then(|d| d.recovery).map(ms),
    }
}

/// Nearest-rank percentile of the rows' unavailability windows, ms.
pub fn unavailability_percentile(rows: &[E10Row], p: f64) -> f64 {
    let mut windows: Vec<f64> = rows.iter().map(|r| r.unavailability_ms).collect();
    if windows.is_empty() {
        return 0.0;
    }
    windows.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * windows.len() as f64).ceil() as usize;
    windows[rank.clamp(1, windows.len()) - 1]
}
