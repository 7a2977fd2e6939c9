//! Remote ILP solver service (Fig. 14's "Remote" configuration).
//!
//! The paper offloads the ILP to a remote machine to keep solver CPU off the
//! application host, observing negligible difference because the problem is
//! small. This module reproduces the architecture with a dedicated solver
//! thread and bounded channels standing in for the network: the daemon ships
//! the profile (the MCKP instance), the service solves it off-thread, and
//! the daemon blocks only for the round trip.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;
use ts_solver::mckp::{MckpProblem, MckpSolution};
use ts_solver::SolverError;

enum Request {
    Solve(Box<MckpProblem>),
    Shutdown,
}

/// Timing-annotated response from the solver service.
#[derive(Debug)]
pub struct RemoteSolution {
    /// The solution (or solver error) produced off-thread.
    pub result: Result<MckpSolution, SolverError>,
    /// Wall-clock CPU time the solve consumed on the service thread, in ns.
    pub solve_ns: f64,
    /// Round-trip time observed by the caller, in ns.
    pub round_trip_ns: f64,
}

/// A solver running on its own thread, reachable over channels.
#[derive(Debug)]
pub struct SolverService {
    tx: SyncSender<Request>,
    rx: Receiver<(Result<MckpSolution, SolverError>, f64)>,
    handle: Option<JoinHandle<()>>,
}

impl SolverService {
    /// Spawn the service thread.
    pub fn spawn() -> SolverService {
        let (req_tx, req_rx) = sync_channel::<Request>(1);
        let (resp_tx, resp_rx) = sync_channel(1);
        // ts-lint: allow(thread-hygiene) -- the solver service IS a dedicated thread; it carries no simulation state and replies over a rendezvous channel
        let handle = std::thread::Builder::new()
            .name("ts-solver-service".into())
            .spawn(move || {
                while let Ok(req) = req_rx.recv() {
                    match req {
                        Request::Shutdown => break,
                        Request::Solve(problem) => {
                            // ts-lint: allow(no-wall-clock) -- measures real solver latency for the observability report; never feeds placement decisions
                            let t0 = Instant::now();
                            let result = problem.solve_greedy();
                            let solve_ns = t0.elapsed().as_nanos() as f64;
                            if resp_tx.send((result, solve_ns)).is_err() {
                                break;
                            }
                        }
                    }
                }
            })
            .expect("spawning the solver thread succeeds");
        SolverService {
            tx: req_tx,
            rx: resp_rx,
            handle: Some(handle),
        }
    }

    /// Solve `problem` on the service thread, blocking for the round trip.
    ///
    /// # Panics
    ///
    /// Panics if the service thread died (a programming error: the thread
    /// only exits on shutdown).
    pub fn solve(&self, problem: MckpProblem) -> RemoteSolution {
        // ts-lint: allow(no-wall-clock) -- round-trip RTT measurement is this module's purpose; reported, never used for planning
        let t0 = Instant::now();
        self.tx
            .send(Request::Solve(Box::new(problem)))
            .expect("service thread is alive");
        let (result, solve_ns) = self.rx.recv().expect("service thread replies");
        RemoteSolution {
            result,
            solve_ns,
            round_trip_ns: t0.elapsed().as_nanos() as f64,
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_solver::mckp::MckpItem;

    fn problem(n: usize, budget: f64) -> MckpProblem {
        MckpProblem {
            groups: (0..n)
                .map(|r| {
                    vec![
                        MckpItem::new(100.0 / (1.0 + r as f64), 1.0),
                        MckpItem::new(0.0, 4.0),
                    ]
                })
                .collect(),
            budget,
        }
    }

    #[test]
    fn remote_matches_local() {
        let service = SolverService::spawn();
        let p = problem(64, 120.0);
        let local = p.solve_greedy().unwrap();
        let remote = service.solve(p).result.unwrap();
        assert_eq!(local.choice, remote.choice);
        assert!((local.perf_cost - remote.perf_cost).abs() < 1e-9);
    }

    #[test]
    fn round_trip_includes_solve_time() {
        let service = SolverService::spawn();
        let out = service.solve(problem(256, 500.0));
        assert!(out.result.is_ok());
        assert!(out.solve_ns > 0.0);
        assert!(out.round_trip_ns >= out.solve_ns);
    }

    #[test]
    fn sequential_requests_reuse_the_thread() {
        let service = SolverService::spawn();
        for i in 1..5 {
            let out = service.solve(problem(16 * i, 40.0 * i as f64));
            assert!(out.result.is_ok(), "request {i}");
        }
    }

    #[test]
    fn infeasible_propagates() {
        let service = SolverService::spawn();
        let out = service.solve(problem(8, 0.0));
        assert_eq!(out.result.unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn clean_shutdown_on_drop() {
        let service = SolverService::spawn();
        let _ = service.solve(problem(8, 20.0));
        drop(service); // Must not hang or panic.
    }
}
