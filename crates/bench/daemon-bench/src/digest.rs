//! Bit-exact digest of a daemon run, for the traced-vs-untraced check.
//!
//! The traced half re-drives the daemon window from the benchmark's own
//! code; it is only a valid measurement of the untraced run if it produced
//! the same run. The digest covers every window's resident page counts,
//! migration count and instantaneous TCO bits, plus the final performance
//! and TCO reports and the daemon tax.

use tierscape_core::RunReport;
use ts_sim::{PerfReport, TcoReport};

/// What one profile window left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowDigest {
    /// Window number, starting at 1.
    pub window: u64,
    /// Resident pages per placement after migration.
    pub actual: Vec<u64>,
    /// Regions migrated this window.
    pub migrations: u64,
    /// `tco_now` at window end, as bits.
    pub tco_bits: u64,
}

/// Digest of a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    /// Per-window records, in window order.
    pub windows: Vec<WindowDigest>,
    /// Final perf report, TCO report and daemon tax, as bits.
    pub finals: Vec<u64>,
    /// `PerfReport::accesses`.
    pub accesses: u64,
}

impl RunDigest {
    /// Digest of an untraced `run_daemon` report.
    pub fn of_report(report: &RunReport) -> RunDigest {
        let windows = report
            .windows
            .iter()
            .map(|w| WindowDigest {
                window: w.window,
                actual: w.actual.clone(),
                migrations: w.migrations,
                tco_bits: w.tco_now.to_bits(),
            })
            .collect();
        RunDigest::new(windows, &report.perf, &report.tco, report.daemon_ns)
    }

    /// Assemble a digest from window records and the final reports.
    pub fn new(
        windows: Vec<WindowDigest>,
        perf: &PerfReport,
        tco: &TcoReport,
        daemon_ns: f64,
    ) -> RunDigest {
        let finals = [
            perf.app_time_ns,
            perf.perf_opt_ns,
            perf.slowdown,
            perf.mean_latency_ns,
            perf.p95_ns,
            perf.p999_ns,
            tco.tco_now,
            tco.tco_avg,
            tco.tco_max,
            tco.savings,
            daemon_ns,
        ]
        .iter()
        .map(|v| v.to_bits())
        .collect();
        RunDigest {
            windows,
            finals,
            accesses: perf.accesses,
        }
    }

    /// The digest as a flat list of words (how a child process hands its
    /// run back); [`RunDigest::from_words`] inverts it.
    pub fn to_words(&self) -> Vec<u64> {
        let mut words = vec![self.accesses, self.finals.len() as u64];
        words.extend(&self.finals);
        words.push(self.windows.len() as u64);
        for w in &self.windows {
            words.extend([w.window, w.migrations, w.tco_bits, w.actual.len() as u64]);
            words.extend(&w.actual);
        }
        words
    }

    /// Parse [`RunDigest::to_words`] output; `None` if it is malformed.
    pub fn from_words(words: &[u64]) -> Option<RunDigest> {
        let mut it = words.iter().copied();
        let mut take = |n: u64| -> Option<Vec<u64>> {
            let n = usize::try_from(n).ok()?;
            let v: Vec<u64> = it.by_ref().take(n).collect();
            (v.len() == n).then_some(v)
        };
        let head = take(2)?;
        let finals = take(head[1])?;
        let nwindows = take(1)?[0];
        let mut windows = Vec::new();
        for _ in 0..nwindows {
            let w = take(4)?;
            windows.push(WindowDigest {
                window: w[0],
                migrations: w[1],
                tco_bits: w[2],
                actual: take(w[3])?,
            });
        }
        take(1).is_none().then_some(RunDigest {
            windows,
            finals,
            accesses: head[0],
        })
    }

    /// FNV-1a over every digested word: a short fingerprint to print.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in self.to_words() {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Windows of this run that fail the checks, out of `windows`.
    ///
    /// A window fails when it is missing, its resident page counts do not
    /// sum to `total_pages`, or it differs from the `reference` run's
    /// window. A mismatch in the final reports, or an access count other
    /// than `expected_accesses`, fails the last window.
    pub fn failed_windows(
        &self,
        reference: &RunDigest,
        windows: u64,
        total_pages: u64,
        expected_accesses: u64,
    ) -> u64 {
        let mut failed: Vec<bool> = (0..windows as usize)
            .map(|i| match self.windows.get(i) {
                Some(w) => {
                    w.actual.iter().sum::<u64>() != total_pages
                        || reference.windows.get(i) != Some(w)
                }
                None => true,
            })
            .collect();
        if self.windows.len() != windows as usize
            || self.finals != reference.finals
            || self.accesses != expected_accesses
            || reference.accesses != expected_accesses
        {
            if let Some(last) = failed.last_mut() {
                *last = true;
            }
        }
        failed.iter().filter(|&&f| f).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let d = RunDigest {
            windows: vec![
                WindowDigest {
                    window: 1,
                    actual: vec![5, 0, 3],
                    migrations: 2,
                    tco_bits: 0.5f64.to_bits(),
                },
                WindowDigest {
                    window: 2,
                    actual: vec![4, 1, 3],
                    migrations: 1,
                    tco_bits: 0.25f64.to_bits(),
                },
            ],
            finals: vec![1, 2, 3],
            accesses: 900,
        };
        let words = d.to_words();
        assert_eq!(RunDigest::from_words(&words), Some(d));
        assert_eq!(RunDigest::from_words(&words[..words.len() - 1]), None);
        let mut longer = words.clone();
        longer.push(7);
        assert_eq!(RunDigest::from_words(&longer), None);
    }
}
