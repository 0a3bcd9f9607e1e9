//! Wall time corrected for contention on a shared host.
//!
//! On a host shared with other tenants, one core runs the same code up to
//! 1.7 times slower for stretches of a second to minutes, while another
//! tenant loads the physical core under it. Stretches longer than a run
//! move the whole run, and no estimator over raw wall times removes that.
//!
//! So a short reference loop from this file is timed on the same thread
//! right before and right after every unit of work. The loop is
//! allocation-heavy and cache-resident, like the program, and slows down
//! with the core. The mean of the two reference times is the core's
//! speed around the unit. A unit's corrected time is its wall time scaled
//! by [`REFERENCE_NOMINAL_S`] over that mean: the time the unit takes on
//! a core that runs the reference loop in that time, which is about the
//! uncontended speed of the 2 GHz Xeon vCPU the benchmark was sized on.
//! A fixed scale rather than the fastest reference time of the run keeps
//! a run that is slow from start to end comparable with the others.
//!
//! This tracks the core only while units are short next to the
//! stretches, so every unit of work is a fraction of a second. The
//! reference loop is the benchmark's own code, so a change to the
//! program moves the units' wall times and not the reference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference inserts per sample.
const REFERENCE_OPS: u64 = 60_000;

/// The reference loop's time on the core corrected times refer to: about
/// the fastest it runs on an uncontended 2 GHz Xeon vCPU.
pub const REFERENCE_NOMINAL_S: f64 = 0.008;

/// One unit of work: its wall time and the reference loop's mean time
/// around it (0 when the meter is off).
#[derive(Clone, Copy, Debug)]
pub struct Unit {
    pub wall: f64,
    reference: f64,
}

/// A reference sample that ended this recently serves as the next
/// unit's "before" sample too.
const REUSE_WITHIN: Duration = Duration::from_millis(1);

/// Times units of work, with reference samples around each when on.
pub struct Meter {
    on: bool,
    samples: Vec<f64>,
    /// The last sample and when it ended.
    last: Option<(f64, Instant)>,
}

impl Meter {
    /// `on` takes reference samples; off, units carry wall time only.
    pub fn new(on: bool) -> Self {
        Meter { on, samples: Vec::new(), last: None }
    }

    /// Run `f` as one unit of work.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Unit) {
        let before = match self.last {
            Some((s, ended)) if ended.elapsed() < REUSE_WITHIN => s,
            _ => self.sample(),
        };
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        let after = self.sample();
        (out, Unit { wall, reference: (before + after) / 2.0 })
    }

    fn sample(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let t0 = Instant::now();
        black_box(reference_loop());
        let ended = Instant::now();
        let s = (ended - t0).as_secs_f64();
        self.samples.push(s);
        self.last = Some((s, ended));
        s
    }

    /// `unit`'s wall time on the nominal core; its plain wall time when
    /// the meter is off.
    pub fn corrected(&self, unit: &Unit) -> f64 {
        if unit.reference > 0.0 {
            unit.wall * REFERENCE_NOMINAL_S / unit.reference
        } else {
            unit.wall
        }
    }

    /// Reference times of the run: (fastest, median, count); zeros when
    /// off.
    pub fn reference_times(&self) -> (f64, f64, usize) {
        let fastest = self.samples.iter().copied().reduce(f64::min).unwrap_or(0.0);
        (fastest, crate::median(self.samples.clone()), self.samples.len())
    }
}

/// The reference loop: inserts and evictions on a bounded ordered map of
/// heap buffers of varying size, which keeps about 1.5 MB live. Returns
/// the map's final size so the work cannot be optimised away.
fn reference_loop() -> usize {
    let mut map = BTreeMap::new();
    let mut x = 1u64;
    for i in 0..REFERENCE_OPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 44, vec![i as u8; 64 + (x as usize & 511)]);
        if map.len() > 4000 {
            map.pop_first();
        }
    }
    map.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrected_time_scales_wall_by_nominal_over_reference() {
        let m = Meter { on: true, samples: vec![0.012, 0.016, 0.020], last: None };
        let u = Unit { wall: 3.0, reference: 2.0 * REFERENCE_NOMINAL_S };
        assert_eq!(m.corrected(&u), 1.5);
        assert_eq!(m.reference_times(), (0.012, 0.016, 3));
    }

    #[test]
    fn an_idle_meter_reports_plain_wall_time() {
        let mut m = Meter::new(false);
        let (v, u) = m.time(|| 7);
        assert_eq!(v, 7);
        assert_eq!(m.corrected(&u), u.wall);
        assert_eq!(m.reference_times(), (0.0, 0.0, 0));
    }
}
