//! How fast the host is while an in-process window runs.
//!
//! The host this benchmark is sized on is two cores of a shared machine
//! whose speed changes for minutes at a time: the same scans on the same
//! commit take up to half as long again, in CPU time as much as in latency,
//! and ten runs then spread by more than the largest bound the driver
//! admits. What slows is the memory system with both cores in it — a
//! dependent arithmetic chain keeps its pace, a streaming sum on two threads
//! loses a tenth, random read-modify-writes on two threads into tables
//! beyond the private caches lose two fifths, and they lose them in step
//! with the engine's scans. The same loop on one thread does not follow
//! them, and readings taken beside an idle server are too unsteady to
//! correct the served workloads with (README.md).
//!
//! So an in-process window times that loop, the *probe*, between its rounds,
//! when nothing else runs, and its timings are reported at the probe's
//! nominal pace: divided by the [`HostIndex`]. The probe is this file's code
//! and touches nothing of the program under test, so a change to the program
//! moves a timing and leaves the index alone; the timings as measured and
//! the probe's median reading stay in the result record.

use std::time::{Duration, Instant};

use crate::rng::Rng;
use crate::stats::median;

/// Threads of the probe: as many as an engine scan keeps busy on the sizing
/// host, so a reading also sees how far the second core is really there.
const THREADS: usize = 2;
/// Keys each thread scatters per reading (≈ 3 ms on the sizing host).
const KEYS_PER_THREAD: usize = 1 << 19;
/// `f64` slots of each thread's table: 8 MB, beyond the sizing host's 2 MB
/// private caches.
const SLOTS_PER_THREAD: usize = 1 << 20;
/// The least time between two readings: a duty of about 2 %.
const EVERY: Duration = Duration::from_millis(150);

/// Random read-modify-writes, each thread into a table of its own.
pub struct HostProbe {
    keys: Vec<u32>,
    tables: Vec<f64>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        // The keys are the same on every run: the probe is a yardstick, not
        // an input.
        let mut rng = Rng::new(0, "host probe");
        let keys = (0..KEYS_PER_THREAD * THREADS)
            .map(|_| rng.below(SLOTS_PER_THREAD as u64) as u32)
            .collect();
        let mut probe = HostProbe { keys, tables: vec![0.0; SLOTS_PER_THREAD * THREADS] };
        probe.read_ms(); // maps the tables' pages
        probe
    }

    /// One reading: the milliseconds the scatter takes now.
    pub fn read_ms(&mut self) -> f64 {
        fn scatter(keys: &[u32], table: &mut [f64]) {
            for &key in keys {
                table[key as usize] += 1.0;
            }
        }
        let start = Instant::now();
        let mut parts =
            self.keys.chunks(KEYS_PER_THREAD).zip(self.tables.chunks_mut(SLOTS_PER_THREAD));
        let own = parts.next().expect("at least one thread");
        std::thread::scope(|scope| {
            for (keys, table) in parts {
                scope.spawn(move || scatter(keys, table));
            }
            scatter(own.0, own.1);
        });
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// The readings of one window, taken between rounds when the last one is
/// [`EVERY`] old.
pub struct HostReadings {
    probe: HostProbe,
    next: Instant,
    pub ms: Vec<f64>,
}

impl HostReadings {
    pub fn new() -> HostReadings {
        HostReadings { probe: HostProbe::new(), next: Instant::now(), ms: Vec::new() }
    }

    /// Whether a reading is due.
    pub fn due(&self) -> bool {
        Instant::now() >= self.next
    }

    pub fn read(&mut self) {
        self.ms.push(self.probe.read_ms());
        self.next = Instant::now() + EVERY;
    }
}

/// How a workload's timings follow the probe.
#[derive(Debug, Clone, Copy)]
pub struct HostModel {
    /// The probe's median reading over recorded runs on the sizing host, in
    /// ms; the timings are reported at this pace.
    pub nominal_ms: f64,
    /// The share of the workload's time that stretches with the probe's,
    /// fitted on recorded runs of one commit (README.md).
    pub share: f64,
}

/// By how much the window's timings are longer than at the nominal pace.
#[derive(Debug, Clone, Copy)]
pub struct HostIndex {
    /// Median reading of the window, in ms.
    pub probe_ms: f64,
    pub readings: usize,
    pub index: f64,
}

impl HostModel {
    /// The served workloads': no probe is read, the timings are reported as
    /// measured.
    pub const AS_MEASURED: HostModel = HostModel { nominal_ms: 1.0, share: 0.0 };

    /// `1 − share + share · probe / nominal`: the part of the time that does
    /// not wait on memory keeps its pace, the rest stretches as the probe
    /// does. Without a reading the timings are reported as measured.
    pub fn index(&self, readings_ms: &[f64]) -> HostIndex {
        let probe_ms = if readings_ms.is_empty() { self.nominal_ms } else { median(readings_ms) };
        HostIndex {
            probe_ms,
            readings: readings_ms.len(),
            index: 1.0 - self.share + self.share * probe_ms / self.nominal_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_stretches_only_the_share_that_follows_the_probe() {
        let model = HostModel { nominal_ms: 4.0, share: 0.5 };
        assert_eq!(model.index(&[4.0, 4.0, 4.0]).index, 1.0);
        // The probe takes half as long again: half of the time does too.
        let slow = model.index(&[6.5, 6.0, 5.5]);
        assert_eq!((slow.probe_ms, slow.readings, slow.index), (6.0, 3, 1.25));
        assert_eq!(model.index(&[2.0]).index, 0.75);
        assert_eq!(model.index(&[]).index, 1.0);
        assert_eq!(HostModel::AS_MEASURED.index(&[]).index, 1.0);
    }

    #[test]
    fn a_reading_scatters_every_key_of_every_thread() {
        let mut probe = HostProbe::new();
        assert!(probe.read_ms() > 0.0);
        // Once when the pages were mapped, once now.
        let total: f64 = probe.tables.iter().sum();
        assert_eq!(total, (2 * KEYS_PER_THREAD * THREADS) as f64);
    }

    #[test]
    fn readings_are_paced() {
        let mut readings = HostReadings::new();
        assert!(readings.due());
        readings.read();
        assert!(!readings.due());
        assert_eq!(readings.ms.len(), 1);
    }
}
