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
use crate::failover::{try_failover, FailoverConfig, FailoverOutcome};
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
    /// Runs the scenario; `None` when the kill saw no service inside
    /// its observation window.
    pub fn run(&self) -> Option<FailoverOutcome> {
        try_failover(&self.cfg, self.groups)
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
    /// The unavailability window and its five phases, ms: total,
    /// detection, election, log fence (zero for P4CE by design), switch
    /// re-acceleration, to the successor's first decision. `None` when
    /// the kill saw no service inside its observation window.
    pub budget_ms: Option<[f64; 6]>,
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
        let dash = || "-".to_owned();
        let budget = match self.budget_ms {
            Some(ms) => ms.map(fmt_f64),
            None => std::array::from_fn(|i| if i == 0 { NO_SERVICE.into() } else { dash() }),
        };
        let mut cells = vec![
            self.scenario.to_owned(),
            self.seed.to_string(),
            fmt_f64(self.kill_after_ms),
        ];
        cells.extend(budget);
        cells.push(format!("{:.1}%", self.dip_depth_pct));
        cells.push(self.recovery_ms.map_or_else(dash, fmt_f64));
        cells
    }
}

/// What an unserved kill's row says where its window would be.
pub const NO_SERVICE: &str = "no service in window";

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Flattens an outcome into its table row; an unserved kill (`None`)
/// still gets one, with [`NO_SERVICE`] where its window would be, no
/// throughput left (a 100 % dip) and no recovery.
///
/// # Panics
///
/// Panics if the budget does not reconcile — the sum of the five phase
/// columns must equal the window exactly (same nanosecond arithmetic, so
/// the check is exact, not within-epsilon).
pub fn row(scenario: &Scenario, out: Option<&FailoverOutcome>) -> E10Row {
    let budget_ms = out.map(|out| {
        assert!(
            out.budget.reconciles(),
            "budget must telescope: {:?}",
            out.budget
        );
        let mut all = [ms(out.budget.unavailability()); 6];
        for (cell, phase) in all[1..].iter_mut().zip(&out.budget.phases) {
            *cell = ms(phase.duration());
        }
        all
    });
    E10Row {
        scenario: scenario.label,
        seed: scenario.cfg.seed,
        kill_after_ms: ms(scenario.cfg.kill_after),
        budget_ms,
        dip_depth_pct: match out {
            Some(out) => out.dip.map_or(0.0, |d| d.dip_depth_pct),
            None => 100.0,
        },
        recovery_ms: out.and_then(|out| out.dip?.recovery).map(ms),
    }
}

/// Nearest-rank percentile of the served rows' unavailability windows, ms.
pub fn unavailability_percentile(rows: &[E10Row], p: f64) -> f64 {
    let mut windows: Vec<f64> = rows.iter().filter_map(|r| Some(r.budget_ms?[0])).collect();
    if windows.is_empty() {
        return 0.0;
    }
    windows.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * windows.len() as f64).ceil() as usize;
    windows[rank.clamp(1, windows.len()) - 1]
}
