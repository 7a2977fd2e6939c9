//! Access-trace recording and replay.
//!
//! Production tiering studies often run from captured traces rather than
//! live applications. [`TraceRecorder`] wraps any workload and captures its
//! access stream; [`TraceWorkload`] replays a captured trace (looping), with
//! the original page-class map preserved so compression behaviour matches.

use crate::corpus::PageClass;
use crate::{Access, Workload, PAGE_SIZE};

/// An access trace plus the content metadata replay needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the traced workload.
    pub source: String,
    /// RSS in bytes of the traced workload.
    pub rss_bytes: u64,
    /// Content seed of the traced workload.
    pub content_seed: u64,
    /// Page-class of each page (index = page number).
    pub page_classes: Vec<PageClass>,
    /// The access stream: packed `(page << 1) | is_store`.
    pub events: Vec<u64>,
}

/// Record `n_events` accesses from `workload` into a [`Trace`].
pub fn record(workload: &mut dyn Workload, n_events: usize) -> Trace {
    let total_pages = workload.total_pages();
    let page_classes = (0..total_pages).map(|p| workload.page_class(p)).collect();
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let a = workload.next_access();
        let page = a.addr / PAGE_SIZE as u64;
        events.push((page << 1) | a.is_store as u64);
    }
    Trace {
        source: workload.name().to_string(),
        rss_bytes: workload.rss_bytes(),
        content_seed: workload.content_seed(),
        page_classes,
        events,
    }
}

/// A workload that replays a recorded trace, looping at the end.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    description: String,
    trace: Trace,
    cursor: usize,
    /// Full loops completed.
    pub loops: u64,
}

impl TraceWorkload {
    /// Create a replayer over `trace`.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace (nothing to replay).
    pub fn new(trace: Trace) -> Self {
        assert!(!trace.events.is_empty(), "empty trace");
        TraceWorkload {
            name: format!("trace:{}", trace.source),
            description: format!(
                "replay of {} events captured from {}",
                trace.events.len(),
                trace.source
            ),
            trace,
            cursor: 0,
            loops: 0,
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn rss_bytes(&self) -> u64 {
        self.trace.rss_bytes
    }

    fn page_class(&self, page: u64) -> PageClass {
        self.trace
            .page_classes
            .get(page as usize)
            .copied()
            .unwrap_or(PageClass::Zero)
    }

    fn content_seed(&self) -> u64 {
        self.trace.content_seed
    }

    fn next_access(&mut self) -> Access {
        let ev = self.trace.events[self.cursor];
        self.cursor += 1;
        if self.cursor == self.trace.events.len() {
            self.cursor = 0;
            self.loops += 1;
        }
        Access {
            addr: (ev >> 1) * PAGE_SIZE as u64,
            is_store: ev & 1 == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, WorkloadId};

    #[test]
    fn record_and_replay_identical_pages() {
        let mut original = WorkloadId::MemcachedYcsb.build(Scale::TEST, 11);
        let trace = record(original.as_mut(), 5000);
        assert_eq!(trace.events.len(), 5000);
        let mut replay = TraceWorkload::new(trace);
        assert_eq!(replay.rss_bytes(), original.rss_bytes());
        // Replay visits the same pages in the same order (page granular).
        let t = replay.trace().clone();
        for &ev in t.events.iter().take(100) {
            let a = replay.next_access();
            assert_eq!(a.addr / 4096, ev >> 1);
            assert_eq!(a.is_store, ev & 1 == 1);
        }
    }

    #[test]
    fn replay_loops() {
        let mut original = WorkloadId::Bfs.build(Scale::TEST, 3);
        let trace = record(original.as_mut(), 100);
        let mut replay = TraceWorkload::new(trace);
        for _ in 0..250 {
            replay.next_access();
        }
        assert_eq!(replay.loops, 2);
    }

    #[test]
    fn classes_preserved() {
        let mut original = WorkloadId::XsBench.build(Scale::TEST, 3);
        let trace = record(original.as_mut(), 10);
        let replay = TraceWorkload::new(trace);
        for p in [0u64, 5, 100] {
            assert_eq!(replay.page_class(p), original.page_class(p));
        }
        // Content regenerates identically.
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        original.fill_page(7, &mut a);
        replay.fill_page(7, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        let _ = TraceWorkload::new(Trace {
            source: "x".into(),
            rss_bytes: 4096,
            content_seed: 0,
            page_classes: vec![],
            events: vec![],
        });
    }
}
