//! The end-to-end run (`--trace 0`): tracing off, one thread, repeats of
//! one seed for as long as `--seconds` allows. A virtual metric must be
//! bit-identical on every repeat. The repeats the noise guard accepted
//! give the wall metrics: set-up and windows are timed in slices of
//! virtual time ([`drive::Sliced`]) and each costs the sum of its slices'
//! fastest sightings.

use std::time::{Duration, Instant};

use crate::drive::{self, Repeat, Sliced, Virtual};
use crate::noise::NoiseGuard;
use crate::report::{Metric, Report};
use crate::spec::{self, Inputs, Scale, Workload, END_TO_END};
use crate::sut::SimDuration;

/// Peak resident set of this process, MB (10⁶ bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// The checks every repeat must pass beyond the drivers' own.
pub fn check_repeat(workload: Workload, inputs: &Inputs, r: &Repeat) -> Result<(), String> {
    let v = &r.virt;
    // A successor that loses its switch handshake to the storm falls
    // back to direct replication (§III-A) and may still be there when the
    // observation ends: an outcome, not an error. Everywhere else P4CE
    // has no reason to leave the in-network path.
    let must_accelerate = !matches!(workload, Workload::MuFanout | Workload::LeaderKill);
    if must_accelerate && !v.accelerated {
        return Err("a P4CE workload ended off the in-network path".into());
    }
    if v.decided == 0 || v.attempted == 0 {
        return Err("nothing was decided".into());
    }
    if v.max_rate_in_slo <= 0.0 {
        return Err(format!(
            "no measured rate met the workload's objective {:?} (p99 {} us)",
            inputs.slo, v.p99_us
        ));
    }
    if let Some(s) = &r.shard {
        if s.foreign_entries != 0 {
            return Err(format!(
                "{} entries applied by a foreign group",
                s.foreign_entries
            ));
        }
    }
    Ok(())
}

/// A repeat's windows are timed in about this many slices.
const SLICES_PER_REPEAT: u64 = 2000;

/// The virtual time between two readings of the wall clock: short enough
/// that a slice is a fraction of a millisecond of host time (an
/// interruption then spoils one slice in a few, not every one), long
/// enough that reading the clock costs nothing beside the slice.
fn slice_for(window_virtual: SimDuration) -> SimDuration {
    SimDuration::from_nanos((window_virtual.as_nanos() / SLICES_PER_REPEAT).max(5_000))
}

/// Per lap, the fastest sighting over the repeats folded in so far.
#[derive(Debug, Default)]
struct FastestLaps(Vec<u64>);

impl FastestLaps {
    fn fold(&mut self, laps_ns: &[u64]) -> Result<(), String> {
        if self.0.is_empty() {
            self.0 = laps_ns.to_vec();
        } else if self.0.len() == laps_ns.len() {
            for (best, &lap) in self.0.iter_mut().zip(laps_ns) {
                *best = (*best).min(lap);
            }
        } else {
            return Err(format!(
                "a repeat was timed in {} laps, an earlier one in {}",
                laps_ns.len(),
                self.0.len()
            ));
        }
        Ok(())
    }

    fn total_ns(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Result<Report, String> {
    let inputs = spec::generate(workload, seed, scale);
    let quick = scale == Scale::Quick;
    let mut guard = NoiseGuard::new();

    // Own drivers == library runners, on this very config and advanced
    // slice by slice as the timed repeats are. These two passes over the
    // workload are also the warm-up: the first pass over the code is
    // twice as slow as the next ones and must not be timed.
    let slice = slice_for(inputs.window_virtual());
    drive::verify_against_library(&inputs, &mut Sliced::new(slice))?;

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut first: Option<Virtual> = None;
    let mut setup_laps = FastestLaps::default();
    let mut window_laps = FastestLaps::default();
    let mut rss_mb = None;
    // A repeat is started only if, going by the one before it, it can end
    // inside the budget.
    let mut last_repeat = Duration::ZERO;
    while repeats.is_empty() || (!quick && started.elapsed() + last_repeat <= budget) {
        let repeat_started = Instant::now();
        let mut sliced = Sliced::new(slice);
        let (repeat, quiet) = guard.bracket(|| drive::run(&inputs, &mut sliced));
        let repeat = repeat?;
        last_repeat = repeat_started.elapsed();
        check_repeat(workload, &inputs, &repeat)?;
        let first = first.get_or_insert_with(|| repeat.virt.clone());
        if *first != repeat.virt {
            return Err(format!(
                "virtual results differ between repeats of one seed:\n {:?}\n {:?}",
                first, repeat.virt
            ));
        }
        if quiet {
            setup_laps.fold(&sliced.setup_laps_ns)?;
            window_laps.fold(&sliced.window_laps_ns)?;
            repeats.push(repeat);
        }
        // The high-water mark is read after a fixed amount of work — the
        // cross-check and one repeat — so that it does not creep with
        // however many repeats the host had time for.
        if rss_mb.is_none() {
            rss_mb = Some(peak_rss_mb()?);
        }
    }
    let rss_mb = rss_mb.expect("the loop runs at least once");

    let v = &repeats[0].virt;
    let window_ns: Vec<f64> = repeats
        .iter()
        .map(|r| r.window_wall.as_nanos() as f64 / v.decided as f64)
        .collect();
    let sliced_ns = window_laps.total_ns() / v.decided as f64;
    let setup_s: Vec<f64> = repeats.iter().map(|r| r.setup_wall.as_secs_f64()).collect();
    let sliced_setup_s = setup_laps.total_ns() / 1e9;
    let value = |name: &str| -> Result<Metric, String> {
        let unit = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .ok_or(format!("{name} is not an end-to-end metric"))?;
        Ok(match name {
            "decided_per_vsec" => Metric::exact(name, unit, v.decided_per_vsec),
            "goodput_gbytes_per_vsec" => Metric::exact(name, unit, v.goodput_gbytes_per_vsec),
            "decide_latency_p50_us" => Metric::exact(name, unit, v.p50_us),
            "decide_latency_p99_us" => Metric::exact(name, unit, v.p99_us),
            "max_rate_in_slo_per_vsec" => Metric::exact(name, unit, v.max_rate_in_slo),
            "time_to_service_p50_ms" => Metric::exact(name, unit, v.time_to_service_p50_ms),
            "wall_ns_per_decided" => Metric::beside(name, unit, sliced_ns, &window_ns),
            "peak_rss_mb" => Metric::exact(name, unit, rss_mb),
            "setup_s" => Metric::beside(name, unit, sliced_setup_s, &setup_s),
            other => return Err(format!("no value for end-to-end metric {other}")),
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| value(m.name))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(zero) = metrics.iter().find(|m| m.value <= 0.0) {
        return Err(format!("end-to-end metric {} is not positive", zero.name));
    }

    let mut notes = Vec::new();
    if !repeats[0].failovers.is_empty() {
        let per_kill: Vec<String> = repeats[0]
            .failovers
            .iter()
            .map(|k| format!("{:.2}", k.phases_ms.iter().sum::<f64>()))
            .collect();
        notes.push(format!(
            "time to service per kill, ms (every second one stormy): {}",
            per_kill.join(" ")
        ));
    }
    notes.extend([
        format!(
            "{} timed repeats of one seed after the cross-check's two passes, {} discarded as \
             noisy; host noise {:.1} %",
            repeats.len(),
            guard.discarded,
            guard.noise_pct()
        ),
        format!(
            "wall clock read every {} ns of virtual time: {} laps in set-up, {} in the windows; \
             the fastest whole repeat cost {:.1} ns per decided value and {:.4} s of set-up, \
             lap by lap the fastest cost {:.1} ns and {:.4} s",
            slice.as_nanos(),
            setup_laps.0.len(),
            window_laps.0.len(),
            window_ns.iter().copied().fold(f64::INFINITY, f64::min),
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            sliced_ns,
            sliced_setup_s
        ),
        format!(
            "{} latency samples behind the percentiles; {} simulator events per repeat; \
             {:.1} ms of virtual time measured per repeat",
            v.latency_samples,
            v.events_processed,
            inputs.window_virtual().as_nanos() as f64 / 1e6
        ),
        "own drivers reproduced the library runners bit for bit; every repeat bit-identical \
         on the virtual clock"
            .to_owned(),
    ]);

    Ok(Report {
        workload: workload.name().to_owned(),
        seed,
        traced: false,
        quick,
        attempted: v.attempted,
        failed: v.failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lap_keeps_its_fastest_sighting() {
        let mut laps = FastestLaps::default();
        laps.fold(&[30, 10, 20]).expect("first repeat");
        laps.fold(&[25, 15, 5]).expect("same shape");
        assert_eq!(laps.0, vec![25, 10, 5]);
        assert_eq!(laps.total_ns(), 40.0);
        // A repeat cut differently did other work per lap: no minimum.
        assert!(laps.fold(&[1, 2]).is_err());
    }

    #[test]
    fn a_repeat_is_cut_into_two_thousand_slices_of_at_least_5_us() {
        let ms = SimDuration::from_millis;
        assert_eq!(slice_for(ms(100)), SimDuration::from_micros(50));
        assert_eq!(slice_for(ms(6)), SimDuration::from_micros(5));
    }
}
