//! The background sampler: snapshots every registered phase stack at a
//! fixed interval and accumulates folded stacks plus per-phase counts.
//!
//! A [`Session`] owns one sampler thread. Sessions are not exclusive —
//! the `GMG_PROF` env hook wraps whole binaries that may start their own
//! inner session, and parallel tests each run one — so all bookkeeping
//! lives in the session, and only the thread registry is shared. All
//! allocation happens on the sampler thread; the sampled threads' hot
//! path stays allocation-free.

use crate::stack::{self, MAX_DEPTH};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Accum {
    ticks: u64,
    samples: u64,
    empty_samples: u64,
    dropped: u64,
    threads_seen: usize,
    truncated: u64,
    folded: BTreeMap<String, u64>,
    root_ticks: BTreeMap<String, u64>,
}

/// An active sampling session. Stop it to retrieve the [`Profile`].
pub struct Session {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Accum>>,
    t0: Instant,
    interval: Duration,
}

/// Start a sampling session with the given interval. Phase push/pop
/// becomes live process-wide for the session's lifetime.
pub fn start(interval: Duration) -> Session {
    stack::session_begin();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("gmg-prof-sampler".into())
        .spawn(move || sample_loop(&stop2, interval))
        .expect("spawn sampler thread");
    Session {
        stop,
        handle: Some(handle),
        t0: Instant::now(),
        interval,
    }
}

fn sample_loop(stop: &AtomicBool, interval: Duration) -> Accum {
    let mut acc = Accum::default();
    let mut buf: [&'static str; MAX_DEPTH] = [""; MAX_DEPTH];
    let mut key = String::with_capacity(128);
    while !stop.load(Ordering::Relaxed) {
        let stacks = stack::registered_stacks();
        acc.ticks += 1;
        acc.threads_seen = acc.threads_seen.max(stacks.len());
        let mut roots: BTreeSet<&'static str> = BTreeSet::new();
        let mut truncated = 0;
        for s in &stacks {
            truncated += s.truncated();
            match s.sample(&mut buf) {
                None => acc.dropped += 1,
                Some(0) => acc.empty_samples += 1,
                Some(d) => {
                    acc.samples += 1;
                    key.clear();
                    for (i, name) in buf.iter().take(d).enumerate() {
                        if i > 0 {
                            key.push(';');
                        }
                        key.push_str(name);
                    }
                    if let Some(n) = acc.folded.get_mut(key.as_str()) {
                        *n += 1;
                    } else {
                        acc.folded.insert(key.clone(), 1);
                    }
                    roots.insert(buf[0]);
                }
            }
        }
        acc.truncated = acc.truncated.max(truncated);
        for r in roots {
            *acc.root_ticks.entry(r.to_string()).or_insert(0) += 1;
        }
        std::thread::sleep(interval);
    }
    acc
}

impl Session {
    /// Stop sampling and fold the accumulated data into a [`Profile`].
    /// Sampler health is exported as gmg-metrics gauges when the metrics
    /// registry is enabled.
    pub fn stop(mut self) -> Profile {
        self.stop.store(true, Ordering::Relaxed);
        let acc = self
            .handle
            .take()
            .expect("session already stopped")
            .join()
            .expect("sampler thread panicked");
        stack::session_end();
        let wall_s = self.t0.elapsed().as_secs_f64();
        let p = Profile {
            interval_s: self.interval.as_secs_f64(),
            wall_s,
            ticks: acc.ticks,
            samples: acc.samples,
            empty_samples: acc.empty_samples,
            dropped: acc.dropped,
            threads_seen: acc.threads_seen,
            truncated: acc.truncated,
            folded: acc.folded,
            root_ticks: acc.root_ticks,
        };
        p.export_metrics();
        p
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // `stop()` takes the handle; only an abandoned session cleans up
        // here so the enable count stays balanced.
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = h.join();
            stack::session_end();
        }
    }
}

/// The folded result of one sampling session.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Configured sampling interval, seconds.
    pub interval_s: f64,
    /// Session wall time, seconds.
    pub wall_s: f64,
    /// Sampler ticks taken (each tick samples every registered thread).
    pub ticks: u64,
    /// Thread-samples with a non-empty phase stack.
    pub samples: u64,
    /// Thread-samples that found an empty stack (thread idle / outside
    /// any instrumented phase).
    pub empty_samples: u64,
    /// Thread-samples discarded because the seqlock stayed contended.
    pub dropped: u64,
    /// Peak number of registered live threads observed.
    pub threads_seen: usize,
    /// Peak per-stack overflow count (pushes beyond [`MAX_DEPTH`]).
    pub truncated: u64,
    /// Folded stacks: `"root;child;leaf" -> samples`.
    pub folded: BTreeMap<String, u64>,
    /// Per-root wall occupancy: ticks during which at least one thread
    /// had this root phase on its stack. `root_ticks / ticks` estimates
    /// the root's share of session wall time independent of thread count.
    pub root_ticks: BTreeMap<String, u64>,
}

impl Profile {
    /// Flamegraph-compatible folded text (`a;b;c N` lines).
    pub fn to_folded(&self) -> String {
        crate::folded::encode(&self.folded)
    }

    /// Estimated share of session wall time with `root` active on some
    /// thread (0 when nothing was sampled).
    pub fn root_share(&self, root: &str) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        *self.root_ticks.get(root).unwrap_or(&0) as f64 / self.ticks as f64
    }

    /// Samples in which `name` appears anywhere on the stack ("total"
    /// time) and in which it is the leaf ("self" time).
    pub fn phase_counts(&self, name: &str) -> (u64, u64) {
        let mut total = 0;
        let mut self_ = 0;
        for (key, n) in &self.folded {
            let mut frames = key.split(';');
            let last = key.rsplit(';').next().unwrap_or("");
            if frames.any(|f| f == name) {
                total += n;
            }
            if last == name {
                self_ += n;
            }
        }
        (total, self_)
    }

    /// Per-phase self/total sample counts over every phase name seen.
    pub fn phase_table(&self) -> BTreeMap<String, PhaseCounts> {
        let mut out: BTreeMap<String, PhaseCounts> = BTreeMap::new();
        for (key, n) in &self.folded {
            let frames: Vec<&str> = key.split(';').collect();
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for (i, f) in frames.iter().enumerate() {
                // Count a recursive frame once per stack for total time.
                if seen.insert(f) {
                    out.entry(f.to_string()).or_default().total += n;
                }
                if i == frames.len() - 1 {
                    out.entry(f.to_string()).or_default().self_ += n;
                }
            }
        }
        out
    }

    /// Decompose the samples rooted at `root`: total samples under the
    /// root, samples per direct child phase, and samples where the root
    /// itself was the leaf (un-attributed to any named sub-phase).
    pub fn under_root(&self, root: &str) -> RootBreakdown {
        let mut b = RootBreakdown::default();
        for (key, n) in &self.folded {
            let mut frames = key.split(';');
            if frames.next() != Some(root) {
                continue;
            }
            b.total += n;
            match frames.next() {
                Some(child) => *b.children.entry(child.to_string()).or_insert(0) += n,
                None => b.root_only += n,
            }
        }
        b
    }

    /// Export sampler health as gmg-metrics gauges (no-op while the
    /// metrics registry is disabled).
    pub fn export_metrics(&self) {
        if !gmg_metrics::enabled() {
            return;
        }
        gmg_metrics::gauge("prof_ticks", 0, None, "prof").set(self.ticks as f64);
        gmg_metrics::gauge("prof_samples_taken", 0, None, "prof").set(self.samples as f64);
        gmg_metrics::gauge("prof_samples_dropped", 0, None, "prof").set(self.dropped as f64);
        gmg_metrics::gauge("prof_threads_registered", 0, None, "prof")
            .set(self.threads_seen as f64);
        gmg_metrics::gauge("prof_frames_truncated", 0, None, "prof").set(self.truncated as f64);
    }
}

/// Self/total sample counts for one phase name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Samples with the phase anywhere on the stack.
    pub total: u64,
    /// Samples with the phase as the leaf.
    pub self_: u64,
}

/// Samples under one root phase, split by direct child.
#[derive(Debug, Clone, Default)]
pub struct RootBreakdown {
    /// All samples whose stack is rooted at this phase.
    pub total: u64,
    /// Samples per direct child phase (attributed to a named sub-phase).
    pub children: BTreeMap<String, u64>,
    /// Samples where the root was the leaf — time inside the kernel but
    /// outside any named sub-phase.
    pub root_only: u64,
}

impl RootBreakdown {
    /// Fraction of the root's samples attributed to a named sub-phase.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.root_only as f64 / self.total as f64
    }

    /// Share of the root's samples in the given child.
    pub fn child_share(&self, child: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.children.get(child).unwrap_or(&0) as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::phase;

    fn busy_ms(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn session_captures_nested_phases() {
        let s = start(Duration::from_micros(100));
        for _ in 0..20 {
            let _root = phase("smp_kernel");
            {
                let _p = phase("smp_hot");
                busy_ms(4);
            }
            {
                let _p = phase("smp_cold");
                busy_ms(1);
            }
        }
        let p = s.stop();
        assert!(p.ticks > 0 && p.samples > 0, "sampler saw nothing: {p:?}");
        let b = p.under_root("smp_kernel");
        assert!(b.total > 0, "kernel root never sampled");
        assert!(
            b.child_share("smp_hot") > b.child_share("smp_cold"),
            "hot phase not dominant: {:?}",
            b.children
        );
        assert!(b.coverage() > 0.5, "coverage too low: {}", b.coverage());
        assert!(p.root_share("smp_kernel") > 0.2);
        let folded = p.to_folded();
        assert!(folded.contains("smp_kernel;smp_hot"), "folded: {folded}");
    }

    #[test]
    fn concurrent_sessions_are_independent() {
        let s1 = start(Duration::from_micros(200));
        let s2 = start(Duration::from_micros(200));
        {
            let _g = phase("smp_shared");
            busy_ms(20);
        }
        let p1 = s1.stop();
        let p2 = s2.stop();
        let (t1, _) = p1.phase_counts("smp_shared");
        let (t2, _) = p2.phase_counts("smp_shared");
        assert!(t1 > 0, "first session missed the phase");
        assert!(t2 > 0, "second session missed the phase");
    }

    #[test]
    fn phase_table_self_vs_total() {
        let mut p = Profile::default();
        p.folded.insert("a;b".into(), 6);
        p.folded.insert("a".into(), 2);
        p.folded.insert("a;b;c".into(), 2);
        let t = p.phase_table();
        assert_eq!(
            t["a"],
            PhaseCounts {
                total: 10,
                self_: 2
            }
        );
        assert_eq!(t["b"], PhaseCounts { total: 8, self_: 6 });
        assert_eq!(t["c"], PhaseCounts { total: 2, self_: 2 });
        let b = p.under_root("a");
        assert_eq!(b.total, 10);
        assert_eq!(b.root_only, 2);
        assert_eq!(b.children["b"], 8);
        assert!((b.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn export_metrics_publishes_gauges() {
        gmg_metrics::enable();
        let p = Profile {
            ticks: 7,
            samples: 5,
            ..Profile::default()
        };
        p.export_metrics();
        let text =
            gmg_metrics::prom::render_prometheus(&gmg_metrics::Registry::global().snapshot());
        assert!(text.contains("prof_samples_taken"), "missing gauge: {text}");
        assert!(text.contains("prof_ticks"), "missing gauge: {text}");
    }
}
