//! A real, in-process, threaded rank runtime with MPI-like semantics.
//!
//! Each rank runs on its own OS thread; `send` is non-blocking
//! (`MPI_Isend`), `recv` blocks with `(source, tag)` matching
//! (`MPI_Irecv` + `MPI_Wait`). On top of this the module implements the
//! paper's `exchange()` for both bricked and conventional fields: 26
//! neighbors, periodic wrap, deterministic tag matching, and a correct
//! treatment of self-neighbors (subdomains that wrap onto themselves).
//!
//! ## Resilience
//!
//! The runtime speaks a reliable protocol over an (optionally) faulty
//! transport. When a [`FaultPlan`] is installed (`RankWorld::run_with_faults`),
//! every payload message carries a sequence number, its predecessor on
//! the link and a checksum, receivers ACK, deduplicate and deliver each
//! sender's messages in send order, and senders retransmit unACKed
//! messages on a per-peer round-trip estimate with exponential backoff —
//! so injected drops, reorderings, duplicates, and detectable corruption
//! are absorbed without the solver noticing. The protocol itself is the
//! IO-free state machine in `reliable.rs`; [`RankCtx`] is its shell.
//! Failures that *cannot* be absorbed (a killed rank, exhausted retries, a
//! receive deadline) surface as typed [`CommError`]s from the `try_*` API;
//! the panicking convenience wrappers (`send`/`recv`) are thin
//! `try_*().unwrap()` shims for call sites that treat comm failure as
//! fatal. `RankWorld::try_run` collects *all* per-rank failures into one
//! structured [`WorldFailure`] instead of propagating the first join
//! panic.
//!
//! Without a fault plan the wire format is the same but the machinery is
//! off: no checksum verification, no ACK traffic, no retransmit state —
//! the in-process channel transport is already reliable and FIFO, so the
//! fault-free path stays as fast and as traceable as before.
//!
//! Either way a receive takes the first matching message in arrival
//! order, and the messages of one sender arrive in send order: two
//! messages with the same `(source, tag)` never overtake each other.
//!
//! This runtime exists for *numerical correctness* of the distributed
//! V-cycle at test scale; performance at scale is the business of
//! [`crate::model`].

use std::time::{Duration, Instant};

use gmg_brick::BrickedField;
use gmg_mesh::ghost::{direction_index, DIRECTIONS_26};
use gmg_mesh::{Array3, Box3, Decomposition, Point3};
use gmg_trace::probe::{self, Kind};

use crate::fault::{
    CommError, ControlFault, FaultInjector, FaultPlan, RankFailure, RetryPolicy, WorldFailure,
};
pub use crate::reliable::ArqStats;
use crate::reliable::{Delivery, Input, Output, Reliable};
use crate::transport::{ThreadTransport, Transport, Wire};

#[cfg(unix)]
use crate::process::MembershipClient;

/// Membership needs process worlds, which exist on Unix only: elsewhere
/// there is never a client.
#[cfg(not(unix))]
enum MembershipClient {}

#[cfg(not(unix))]
impl MembershipClient {
    fn poll_park(&mut self) -> Option<u64> {
        match *self {}
    }
    fn rejoining(&self) -> bool {
        match *self {}
    }
    fn ckpt_dir(&self) -> &std::path::Path {
        match *self {}
    }
    fn set_progress(&self, _: u64) {
        match *self {}
    }
    fn report(&mut self, _: bool, _: i64) -> (u64, u64) {
        match *self {}
    }
}

/// Reserved tag space for collectives; user tags must stay below this.
pub(crate) const COLLECTIVE_TAG: u64 = u64::MAX - 1024;

/// Per-rank communication context handed to the rank body: the IO shell
/// around the [`Reliable`] core. It reads the clock, moves wires between
/// the core and the transport, records the core's events, and keeps the
/// stash of unmatched messages and the membership client.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    transport: Box<dyn Transport>,
    core: Reliable,
    /// The core's output buffer, reused for every input.
    out: Vec<Output>,
    /// The core's time base; `None` for a pass-through core, which needs
    /// no time (a clock read costs more than the rest of its send).
    clock: Option<Instant>,
    /// Messages delivered but not yet matched, in arrival order.
    stash: Vec<Delivery>,
    /// Wires taken from the transport so far; the drop-time drain watches
    /// it for quiet.
    wires_handled: u64,
    /// Set when this rank is killed by fault injection: suppresses the
    /// drop-time drain so peers observe a hard failure.
    dead: bool,
    /// Elastic-membership client (multi-process worlds only).
    pub(crate) membership: Option<MembershipClient>,
}

impl RankCtx {
    /// Assemble a context over an arbitrary transport (used by the
    /// thread world below and by `process` child bootstrap). A fault
    /// injector engages the reliable protocol; without one, messages pass
    /// straight through.
    pub(crate) fn from_parts(
        rank: usize,
        nranks: usize,
        transport: Box<dyn Transport>,
        injector: Option<FaultInjector>,
        retry: RetryPolicy,
    ) -> Self {
        RankCtx {
            rank,
            nranks,
            transport,
            clock: injector.is_some().then(Instant::now),
            core: Reliable::new(rank, nranks, injector.map(|i| (i, retry))),
            out: Vec::new(),
            stash: Vec::new(),
            wires_handled: 0,
            dead: false,
            membership: None,
        }
    }

    /// Which transport backend this rank speaks (`"thread"` or `"uds"`).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Transmission counts of the reliable layer (all zero when it is
    /// not engaged).
    pub fn arq_stats(&self) -> ArqStats {
        self.core.stats()
    }

    fn now(&self) -> Duration {
        self.clock.map_or(Duration::ZERO, |start| start.elapsed())
    }

    /// Apply any pending control fault (stall / kill) at a comm-op entry.
    fn check_control(&mut self) -> Result<(), CommError> {
        match self.core.control() {
            (ControlFault::None, _) => Ok(()),
            (ControlFault::Stall(d), _) => {
                probe::event(Kind::Control, "fault:stall").dur_ns(d.as_nanos() as u64);
                std::thread::sleep(d);
                Ok(())
            }
            (ControlFault::Kill, at_op) => {
                self.dead = true;
                probe::event(Kind::Control, "fault:kill");
                Err(CommError::Killed {
                    rank: self.rank,
                    at_op,
                })
            }
        }
    }

    /// Feed the core one input and carry out what it asks: transmit,
    /// stash deliveries, record events. A failed transmission matters only
    /// without the reliable protocol (a vanished peer is otherwise
    /// indistinguishable from a drop, and surfaces as the blocked
    /// operation's timeout or retry budget).
    fn step(&mut self, input: Input) -> Result<(), CommError> {
        let now = self.now();
        let res = self.core.handle(now, input, &mut self.out);
        let mut lost = None;
        for o in self.out.drain(..) {
            match o {
                Output::Transmit { to, wire } => {
                    if self.transport.send(to, wire).is_err() {
                        lost = Some(to);
                    }
                }
                Output::Deliver(m) => {
                    probe::event(Kind::Arrive, "arrive")
                        .msg(m.0, m.1, m.2)
                        .value((m.3.len() * 8) as u64);
                    self.stash.push(m);
                }
                Output::Event(e) => {
                    let kind = if e.name.starts_with("fault:") {
                        Kind::Control
                    } else {
                        Kind::Arq
                    };
                    let g = probe::event(kind, e.name);
                    let g = match e.msg {
                        Some((tag, seq)) => g.msg(e.peer, tag, seq),
                        None => g.peer(e.peer),
                    };
                    if let Some(b) = e.backoff {
                        let _ = g.dur_ns(b.as_nanos() as u64);
                    }
                }
            }
        }
        let transport = &self.transport;
        self.core.departed(now, |to| transport.departed(to));
        match lost {
            Some(peer) if self.core.retry().is_none() => Err(CommError::Disconnected { peer }),
            _ => res,
        }
    }

    /// Non-blocking tagged send (`MPI_Isend` with buffered semantics).
    /// In reliable mode the message is tracked until ACKed and
    /// retransmitted as needed; delivery failure surfaces later, from the
    /// operation that was blocked by it ([`CommError::RetriesExhausted`] or
    /// [`CommError::Timeout`]).
    pub fn try_send(&mut self, to: usize, tag: u64, payload: Vec<f64>) -> Result<(), CommError> {
        self.check_control()?;
        let _probe = probe::span(Kind::Send, "send")
            .msg(to, tag, self.core.next_seq())
            .value((payload.len() * 8) as u64);
        self.step(Input::AppSend { to, tag, payload })
    }

    /// Panicking wrapper around [`RankCtx::try_send`].
    pub fn send(&mut self, to: usize, tag: u64, payload: Vec<f64>) {
        if let Err(e) = self.try_send(to, tag, payload) {
            panic!("comm failure: {e}");
        }
    }

    /// Drive protocol progress: membership-park polling, everything the
    /// transport has right now (inbound before timers: an ACK that
    /// arrived while this rank was computing must retire its message, not
    /// lose a race against a timer that expired over the same stretch),
    /// then the core's timers.
    fn pump(&mut self) -> Result<(), CommError> {
        if let Some(m) = self.membership.as_mut() {
            if let Some(epoch) = m.poll_park() {
                return Err(CommError::Parked { epoch });
            }
        }
        while let Ok(Some(w)) = self.transport.recv(Some(Duration::ZERO)) {
            self.on_wire(w)?;
        }
        self.step(Input::Tick)
    }

    fn on_wire(&mut self, w: Wire) -> Result<(), CommError> {
        self.wires_handled += 1;
        self.step(Input::Wire(w))
    }

    /// The first stashed message from `from` under `tag`: stash order is
    /// arrival order, and the core delivers each sender's messages in send
    /// order, so messages with the same `(src, tag)` never overtake.
    fn take_stashed(&mut self, from: usize, tag: u64) -> Option<Delivery> {
        let pos = self
            .stash
            .iter()
            .position(|(f, t, _, _)| *f == from && *t == tag)?;
        Some(self.stash.remove(pos))
    }

    /// Blocking receive matching `(from, tag)` — panicking wrapper.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        match self.recv_traced(from, tag, None) {
            Ok(p) => p,
            Err(e) => panic!("comm failure: {e}"),
        }
    }

    /// Receive matching `(from, tag)`, failing with
    /// [`CommError::Timeout`] if no matching message arrives in time.
    /// A message that arrives but does not match is stashed, never lost.
    pub fn recv_timeout(
        &mut self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f64>, CommError> {
        self.recv_traced(from, tag, Some(Instant::now() + timeout))
    }

    /// Non-blocking receive: `Ok(None)` when no matching message is
    /// currently available.
    pub fn try_recv(&mut self, from: usize, tag: u64) -> Result<Option<Vec<f64>>, CommError> {
        self.check_control()?;
        self.pump()?;
        Ok(self.take_stashed(from, tag).map(|m| m.3))
    }

    fn recv_traced(
        &mut self,
        from: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<f64>, CommError> {
        // Dropped unmatched on the error path: a failed wait is exactly
        // what the postmortem needs to see.
        let mut wait = probe::span(Kind::RecvWait, "recv").peer(from).tag(tag);
        let (seq, payload) = self.recv_deadline(from, tag, deadline)?;
        wait.delivered(seq, (payload.len() * 8) as u64);
        Ok(payload)
    }

    fn recv_deadline(
        &mut self,
        from: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<(u64, Vec<f64>), CommError> {
        self.check_control()?;
        // Under fault injection a blocking receive must not block forever:
        // the matching send may be gone for good (killed peer, exhausted
        // retries elsewhere). Fault-free receives keep the original
        // indefinite-blocking semantics.
        //
        // The deadline is computed exactly once, before the wait loop:
        // stashing a steady stream of mismatched messages must consume
        // the wait budget, never reset it.
        let deadline =
            deadline.or_else(|| self.core.retry().map(|r| Instant::now() + r.op_timeout));
        let start = Instant::now();
        loop {
            if let Some((_, _, seq, payload)) = self.take_stashed(from, tag) {
                return Ok((seq, payload));
            }
            self.pump()?;
            if let Some((_, _, seq, payload)) = self.take_stashed(from, tag) {
                return Ok((seq, payload));
            }
            // Short slices keep the retransmission timers (and the
            // membership poll) live while blocked.
            let slice = (deadline.is_some() || self.membership_active()).then(|| {
                let left = deadline.map_or(Duration::MAX, |d| {
                    d.saturating_duration_since(Instant::now())
                });
                left.min(Duration::from_millis(1))
            });
            match self.transport.recv(slice) {
                Ok(Some(w)) => self.on_wire(w)?,
                Ok(None) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(CommError::Timeout {
                            from,
                            tag,
                            waited_ms: start.elapsed().as_millis() as u64,
                        });
                    }
                }
                Err(()) => return Err(CommError::Disconnected { peer: from }),
            }
        }
    }

    /// Max-reduction over one value per rank, result on every rank.
    pub fn allreduce_max(&mut self, v: f64) -> f64 {
        match self.try_allreduce_max(v) {
            Ok(r) => r,
            Err(e) => panic!("comm failure: {e}"),
        }
    }

    /// Sum-reduction over one value per rank, result on every rank.
    pub fn allreduce_sum(&mut self, v: f64) -> f64 {
        match self.try_allreduce_sum(v) {
            Ok(r) => r,
            Err(e) => panic!("comm failure: {e}"),
        }
    }

    /// Fallible max-reduction (elastic solvers recover from
    /// [`CommError::Parked`] instead of panicking).
    pub fn try_allreduce_max(&mut self, v: f64) -> Result<f64, CommError> {
        self.allreduce(v, f64::max)
    }

    /// Fallible sum-reduction.
    pub fn try_allreduce_sum(&mut self, v: f64) -> Result<f64, CommError> {
        self.allreduce(v, |a, b| a + b)
    }

    fn allreduce(&mut self, v: f64, combine: impl Fn(f64, f64) -> f64) -> Result<f64, CommError> {
        // Gather to rank 0, reduce, broadcast. O(P) but P is small here.
        let tag = COLLECTIVE_TAG;
        if self.rank == 0 {
            let mut acc = v;
            for r in 1..self.nranks {
                let m = self.recv_traced(r, tag, None)?;
                acc = combine(acc, m[0]);
            }
            for r in 1..self.nranks {
                self.try_send(r, tag + 1, vec![acc])?;
            }
            Ok(acc)
        } else {
            self.try_send(0, tag, vec![v])?;
            Ok(self.recv_traced(0, tag + 1, None)?[0])
        }
    }

    /// Barrier: everyone waits until all ranks arrive.
    pub fn barrier(&mut self) {
        self.allreduce_sum(0.0);
    }

    // -----------------------------------------------------------------
    // Elastic membership (multi-process worlds)
    // -----------------------------------------------------------------

    /// Whether this rank runs under a membership controller (one OS
    /// process per rank) that can park the world and rejoin dead ranks.
    pub fn membership_active(&self) -> bool {
        self.membership.is_some()
    }

    /// Whether this process is a respawned replacement for a dead rank
    /// (it must restore from checkpoint before touching the data plane).
    pub fn membership_rejoining(&self) -> bool {
        self.membership.as_ref().is_some_and(|m| m.rejoining())
    }

    /// Directory where rejoin checkpoints live, when membership is on.
    pub fn checkpoint_dir(&self) -> Option<std::path::PathBuf> {
        self.membership.as_ref().map(|m| m.ckpt_dir().to_path_buf())
    }

    /// Report solve progress (latest completed cycle) to the heartbeat,
    /// so the controller can observe a live solve. No-op without
    /// membership.
    pub fn membership_progress(&self, cycle: u64) {
        if let Some(m) = &self.membership {
            m.set_progress(cycle);
        }
    }

    /// Park at the membership barrier after a [`CommError::Parked`] (or
    /// any comm failure while a controller is reconfiguring the world):
    /// reports the latest locally checkpointed cycle, waits for the
    /// world-wide `RESUME`, fences off the old epoch, and returns
    /// `(new_epoch, resume_cycle)`. Panics if the controller is gone.
    pub fn park_for_rejoin(&mut self, ckpt_cycle: i64) -> (u64, u64) {
        self.resume(|m| m.report(false, ckpt_cycle))
    }

    /// Rejoined-rank variant of [`RankCtx::park_for_rejoin`]: announces
    /// readiness (state restored up to `ckpt_cycle`, `-1` for none) and
    /// waits for the `RESUME` that readmits this rank.
    pub fn rejoin_ready(&mut self, ckpt_cycle: i64) -> (u64, u64) {
        self.resume(|m| m.report(true, ckpt_cycle))
    }

    /// Wait at the membership barrier, then enter the epoch it resumes.
    fn resume(&mut self, wait: impl FnOnce(&mut MembershipClient) -> (u64, u64)) -> (u64, u64) {
        let m = self.membership.as_mut();
        let (epoch, resume_cycle) = wait(m.expect("requires an active membership controller"));
        self.begin_epoch(epoch);
        (epoch, resume_cycle)
    }

    /// Fence off a finished epoch: unmatched stashes and the core's
    /// in-flight state belong to the pre-park world and are discarded;
    /// the transport drops any wire still carrying an older epoch number.
    fn begin_epoch(&mut self, epoch: u64) {
        self.stash.clear();
        self.core.fence();
        self.transport.set_epoch(epoch);
    }
}

impl Drop for RankCtx {
    /// Reliable-mode drain: a finishing rank keeps servicing the protocol
    /// (release delayed wires, retransmit unACKed sends, ACK late
    /// arrivals) until the core is quiet and the wire goes quiet too, so
    /// a lost final ACK cannot strand a peer. Skipped for fault-free
    /// worlds, killed ranks, and panicking unwinds — those must look like
    /// hard failures to their peers.
    fn drop(&mut self) {
        let Some(retry) = self.core.retry() else {
            return;
        };
        if self.dead || std::thread::panicking() {
            return;
        }
        let deadline = Instant::now() + retry.drain_timeout;
        let quiet = retry.backoff_base * 20;
        let mut last_activity = Instant::now();
        while Instant::now() < deadline && !(self.core.quiet() && last_activity.elapsed() >= quiet)
        {
            let handled = self.wires_handled;
            if let Err(CommError::RetriesExhausted { to, seq, .. }) = self.pump() {
                // The peer is gone for good; nothing left to confirm.
                self.core.give_up(to, seq);
                continue;
            }
            // Late deliveries were ACKed by the core and are discarded —
            // no one will read them here.
            self.stash.clear();
            match self.transport.recv(Some(Duration::from_millis(1))) {
                Ok(Some(w)) => {
                    let _ = self.on_wire(w);
                }
                Ok(None) => {}
                Err(()) => break,
            }
            if self.wires_handled != handled {
                last_activity = Instant::now();
            }
        }
    }
}

/// The world: spawns `nranks` threads, each running `body`, and collects
/// their results in rank order.
pub struct RankWorld;

#[cfg(unix)]
static SOCK_WORLD_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Tell glibc to keep the memory this process frees. A rank frees and
/// re-allocates the same multi-megabyte fields and halo payloads for as
/// long as it runs, and by default whether a freed field goes back to the
/// kernel — so that the next solver faults every page of it in again —
/// turns on which small allocation happens to sit above it in the heap
/// (and, once a rank thread's 64 MiB arena spills into the main heap, on
/// which rank spilled first): one answer per build, and with two rank
/// threads one per run. Chunks up to glibc's 32 MiB ceiling come from
/// the heaps, and no heap is trimmed or unmapped. Once per process, from
/// wherever a world starts; a no-op on other C libraries.
pub(crate) fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` only sets tuning parameters of the allocator
        // (under its own lock) and may be called at any time.
        ONCE.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
        });
    }
}

impl RankWorld {
    /// Run `body(ctx)` on every rank concurrently and return the per-rank
    /// results. Any rank failure panics with the full [`WorldFailure`]
    /// report; use [`RankWorld::try_run`] to handle it structurally.
    ///
    /// If the calling thread has a `gmg_trace` capture scope installed,
    /// every rank thread's probe context records into it, so one
    /// `capture` around `run` sees spans from all ranks.
    pub fn run<T: Send>(nranks: usize, body: impl Fn(RankCtx) -> T + Sync) -> Vec<T> {
        Self::try_run(nranks, body).unwrap_or_else(|f| panic!("{f}"))
    }

    /// Like [`RankWorld::run`], but collects every rank's panic into a
    /// structured [`WorldFailure`] instead of panicking: the caller sees
    /// *all* failed ranks with their payloads, not just whichever join
    /// was observed first.
    pub fn try_run<T: Send>(
        nranks: usize,
        body: impl Fn(RankCtx) -> T + Sync,
    ) -> Result<Vec<T>, WorldFailure> {
        Self::run_under(nranks, None, body)
    }

    /// Run under deterministic fault injection: each rank's transport is
    /// wrapped by `plan`'s injector and the reliable (seq + checksum +
    /// ACK + retry) protocol engages. Recoverable faults are absorbed;
    /// unrecoverable ones produce a structured [`WorldFailure`].
    pub fn run_with_faults<T: Send>(
        nranks: usize,
        plan: &FaultPlan,
        body: impl Fn(RankCtx) -> T + Sync,
    ) -> Result<Vec<T>, WorldFailure> {
        Self::run_under(nranks, Some(plan), body)
    }

    /// Like [`RankWorld::run_with_faults`], but the ranks speak through
    /// real socket transports (still one thread per rank, in-process).
    /// Because fault injection happens above the transport, the same
    /// seeded plan produces the same wire fates here as on the thread
    /// backend — this is the equivalence harness the transport proptests
    /// lean on.
    #[cfg(unix)]
    pub fn run_socket_with_faults<T: Send>(
        nranks: usize,
        plan: &FaultPlan,
        body: impl Fn(RankCtx) -> T + Sync,
    ) -> Result<Vec<T>, WorldFailure> {
        let dir = std::env::temp_dir().join(format!(
            "gmg-sockworld-{}-{}",
            std::process::id(),
            SOCK_WORLD_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("socket world dir");
        let transports: Vec<Box<dyn Transport>> = crate::socket::uds_world(&dir, nranks)
            .expect("uds world")
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect();
        let out = Self::run_over(transports, Some(plan), body);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn run_under<T: Send>(
        nranks: usize,
        plan: Option<&FaultPlan>,
        body: impl Fn(RankCtx) -> T + Sync,
    ) -> Result<Vec<T>, WorldFailure> {
        let transports = ThreadTransport::world(nranks).into_iter();
        Self::run_over(
            transports
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
            plan,
            body,
        )
    }

    /// Run every rank over a thread of its own, each speaking through the
    /// given transport backend. The thread world and the in-process
    /// socket worlds share this harness, so trace capture, flight rings,
    /// and structured failure collection behave identically on both.
    fn run_over<T: Send>(
        transports: Vec<Box<dyn Transport>>,
        plan: Option<&FaultPlan>,
        body: impl Fn(RankCtx) -> T + Sync,
    ) -> Result<Vec<T>, WorldFailure> {
        keep_freed_memory();
        let nranks = transports.len();
        let body = &body;
        let trace_scope = gmg_trace::current_scope();
        let trace_scope_ref = &trace_scope;
        // One flight-recorder ring per rank, alive for the whole run so a
        // failure can dump every surviving rank's black box.
        let flight = gmg_flight::FlightWorld::for_run(nranks, &gmg_trace::ObsConfig::from_env());
        let flight_ref = &flight;
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(nranks);
            for (rank, transport) in transports.into_iter().enumerate() {
                handles.push(s.spawn(move || {
                    let _ring = flight_ref.install(rank);
                    let _capture = trace_scope_ref.as_ref().map(|s| s.install());
                    let ctx = RankCtx::from_parts(
                        rank,
                        nranks,
                        transport,
                        plan.map(|p| p.injector(rank)),
                        plan.map(|p| p.retry).unwrap_or_default(),
                    );
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || body(ctx)))
                }));
            }
            let mut oks = Vec::with_capacity(nranks);
            let mut failures = Vec::new();
            for (rank, h) in handles.into_iter().enumerate() {
                // catch_unwind inside the thread means join itself only
                // fails on non-unwinding aborts; fold both into the report.
                let outcome = match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(payload),
                };
                match outcome {
                    Ok(v) => oks.push(v),
                    Err(payload) => failures.push(RankFailure {
                        rank,
                        // `.as_ref()`, not `&payload`: a `&Box<dyn Any>`
                        // would unsize to the *box* as `dyn Any` and every
                        // downcast would miss.
                        message: panic_message(payload.as_ref()),
                    }),
                }
            }
            if failures.is_empty() {
                Ok(oks)
            } else {
                // Black-box the whole world before the rings die with
                // this scope: every surviving rank's history, not just
                // the failed ones'.
                let detail = failures
                    .iter()
                    .map(|f| format!("rank {}: {}", f.rank, f.message))
                    .collect::<Vec<_>>()
                    .join("; ");
                let flight_dump = gmg_flight::dump_world(&flight, "world-failure", &detail);
                Err(WorldFailure {
                    nranks,
                    failures,
                    flight_dump,
                })
            }
        })
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Tag for a halo message: the sender's direction index, offset by
/// `tag_base` (callers bump `tag_base` per exchange round so rounds can't
/// cross-match).
fn halo_tag(tag_base: u64, dir: Point3) -> u64 {
    let t = tag_base * 32 + direction_index(dir) as u64;
    assert!(t < COLLECTIVE_TAG, "tag space exhausted");
    t
}

/// The paper's `exchange()` for bricked fields: fill every ghost brick of
/// `field` from the owning neighbor under `decomp`, using whole-brick
/// messages in deterministic (lexicographic) brick order. Walks the
/// layout's halo plan — nothing at all for a layout without a halo axis.
/// Panicking wrapper around [`try_exchange_bricked`].
pub fn exchange_bricked(
    ctx: &mut RankCtx,
    decomp: &Decomposition,
    field: &mut BrickedField,
    tag_base: u64,
) {
    if let Err(e) = try_exchange_bricked(ctx, decomp, field, tag_base) {
        panic!("comm failure: {e}");
    }
}

/// Fallible [`exchange_bricked`]: comm failures (including the membership
/// controller's [`CommError::Parked`]) surface as errors so an elastic
/// solver can park and rejoin instead of tearing the process down.
///
/// Every halo direction must lead to another rank: an axis on which this
/// rank is its own periodic neighbor belongs in the layout's wrap
/// ([`Decomposition::self_neighbor_axes`]), where the brick adjacency
/// reaches across the seam and there is nothing to exchange.
pub fn try_exchange_bricked(
    ctx: &mut RankCtx,
    decomp: &Decomposition,
    field: &mut BrickedField,
    tag_base: u64,
) -> Result<(), CommError> {
    let rank = ctx.rank();
    let layout = field.layout().clone();
    let bvol = layout.brick_volume();
    let peer = |dir: Point3| {
        let nbr = decomp.neighbor(rank, dir).rank;
        assert_ne!(
            nbr, rank,
            "halo direction {dir:?} leads back to rank {rank}: wrap that axis in the layout"
        );
        nbr
    };
    // Post all sends first (Isend), then satisfy receives.
    for h in layout.halo() {
        let pack = probe::span(Kind::Comm, "pack");
        let mut buf = Vec::with_capacity(h.send.len() * bvol);
        for &s in &h.send {
            buf.extend_from_slice(field.brick(s));
        }
        drop(pack.value((buf.len() * 8) as u64));
        ctx.try_send(peer(h.dir), halo_tag(tag_base, h.dir), buf)?;
    }
    for h in layout.halo() {
        // My ghost in direction `dir` comes from the neighbor's send in
        // direction `-dir` (its direction toward me).
        let payload = ctx.recv_traced(peer(h.dir), halo_tag(tag_base, -h.dir), None)?;
        let _probe = probe::span(Kind::Comm, "unpack").value((payload.len() * 8) as u64);
        assert_eq!(
            payload.len(),
            h.recv.len() * bvol,
            "halo payload size mismatch in {:?}",
            h.dir
        );
        match &h.recv_run {
            Some(run) => field.as_mut_slice()[run.start as usize * bvol..run.end as usize * bvol]
                .copy_from_slice(&payload),
            None => {
                for (&g, brick) in h.recv.iter().zip(payload.chunks_exact(bvol)) {
                    field.brick_mut(g).copy_from_slice(brick);
                }
            }
        }
    }
    Ok(())
}

/// The conventional `exchange()` for `Array3` fields with pack/unpack
/// staging (the HPGMG-baseline path): depth-`depth` ghost exchange with all
/// 26 neighbors.
pub fn exchange_array(
    ctx: &mut RankCtx,
    decomp: &Decomposition,
    a: &mut Array3<f64>,
    depth: i64,
    tag_base: u64,
) {
    let rank = ctx.rank();
    let sub: Box3 = a.valid();
    assert!(
        depth <= a.ghost(),
        "exchange depth exceeds ghost allocation"
    );
    let mut buf = Vec::new();
    for dir in DIRECTIONS_26 {
        let nbr = decomp.neighbor(rank, dir);
        if nbr.rank == rank {
            continue;
        }
        let pack = probe::span(Kind::Comm, "pack");
        a.pack(sub.face_region(dir, depth), &mut buf);
        drop(pack.value((buf.len() * 8) as u64));
        ctx.send(nbr.rank, halo_tag(tag_base, dir), std::mem::take(&mut buf));
    }
    for dir in DIRECTIONS_26 {
        let nbr = decomp.neighbor(rank, dir);
        let recv_region = sub.halo_region(dir, depth);
        if nbr.rank == rank {
            // Self-wrap: my halo cell p equals my own cell p − wrap_shift.
            let _probe = probe::span(Kind::Comm, "self-exchange");
            a.pack(recv_region.shift(-nbr.wrap_shift), &mut buf);
            let moved = std::mem::take(&mut buf);
            a.unpack(recv_region, &moved);
            buf = moved;
            continue;
        }
        let payload = ctx.recv(nbr.rank, halo_tag(tag_base, -dir));
        let _probe = probe::span(Kind::Comm, "unpack").value((payload.len() * 8) as u64);
        a.unpack(recv_region, &payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use gmg_brick::{BrickLayout, BrickOrdering};
    use std::sync::Arc;

    fn idx_fn(p: Point3) -> f64 {
        (p.x + 1000 * p.y + 1_000_000 * p.z) as f64
    }

    #[test]
    fn world_runs_and_collects_in_rank_order() {
        let out = RankWorld::run(4, |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn send_recv_matching_out_of_order() {
        RankWorld::run(2, |mut ctx| {
            if ctx.rank() == 0 {
                // Send two tags; receiver asks for them in reverse order.
                ctx.send(1, 7, vec![7.0]);
                ctx.send(1, 8, vec![8.0]);
            } else {
                let b = ctx.recv(0, 8);
                let a = ctx.recv(0, 7);
                assert_eq!(a, vec![7.0]);
                assert_eq!(b, vec![8.0]);
            }
        });
    }

    #[test]
    fn allreduce_and_barrier() {
        let out = RankWorld::run(5, |mut ctx| {
            let m = ctx.allreduce_max(ctx.rank() as f64);
            let s = ctx.allreduce_sum(1.0);
            ctx.barrier();
            (m, s)
        });
        for (m, s) in out {
            assert_eq!(m, 4.0);
            assert_eq!(s, 5.0);
        }
    }

    #[test]
    fn bricked_exchange_fills_all_ghosts_periodically() {
        // 2×2×2 ranks over a 16³ domain, 4³ bricks, ghost shell 1 brick.
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(2));
        let n = decomp.num_ranks();
        let d = &decomp;
        RankWorld::run(n, move |mut ctx| {
            let sub = d.subdomain(ctx.rank());
            let layout = Arc::new(BrickLayout::new(sub, 4, 1, BrickOrdering::SurfaceMajor));
            let mut f = BrickedField::from_fn(layout.clone(), |p| {
                if sub.contains(p) {
                    idx_fn(p)
                } else {
                    f64::NAN
                }
            });
            exchange_bricked(&mut ctx, d, &mut f, 1);
            // Every storage cell must now hold the periodic image value.
            let dom = d.domain().extent();
            layout.storage_cell_box().for_each(|p| {
                let expect = idx_fn(p.rem_euclid(dom));
                assert_eq!(f.get(p), expect, "rank {} cell {p:?}", ctx.rank());
            });
        });
    }

    #[test]
    fn bricked_exchange_walks_only_the_halo_directions() {
        // On a 1-wide rank-grid axis the layout wraps and nothing is sent:
        // 0, 2 and 8 messages per rank on 1×1×1, 2×1×1 and 2×2×1 — and
        // every cell one brick around the owned box still reads the
        // periodic image, through the exchange or through the adjacency.
        for (grid, dirs) in [
            (Point3::splat(1), 0),
            (Point3::new(2, 1, 1), 2),
            (Point3::new(2, 2, 1), 8),
        ] {
            let decomp = Decomposition::new(Box3::cube(16), grid);
            let n = decomp.num_ranks();
            let d = &decomp;
            let (_, trace) = gmg_trace::capture(|| {
                RankWorld::run(n, move |mut ctx| {
                    let sub = d.subdomain(ctx.rank());
                    let layout = Arc::new(BrickLayout::with_wrap(
                        sub,
                        4,
                        1,
                        BrickOrdering::SurfaceMajor,
                        d.self_neighbor_axes(),
                    ));
                    assert_eq!(layout.halo().len(), dirs);
                    let mut f = BrickedField::from_fn(layout, |p| {
                        if sub.contains(p) {
                            idx_fn(p)
                        } else {
                            f64::NAN
                        }
                    });
                    exchange_bricked(&mut ctx, d, &mut f, 1);
                    let dom = d.domain().extent();
                    sub.grow(4).for_each(|p| {
                        assert_eq!(f.get(p), idx_fn(p.rem_euclid(dom)), "cell {p:?}");
                    });
                });
            });
            let sends = trace.events.iter().filter(|e| e.op.name() == "send");
            assert_eq!(sends.count(), n * dirs, "grid {grid:?}");
        }
    }

    #[test]
    #[should_panic(expected = "wrap that axis in the layout")]
    fn bricked_exchange_rejects_a_halo_toward_the_rank_itself() {
        let decomp = Decomposition::single(Box3::cube(8));
        let d = &decomp;
        RankWorld::run(1, move |mut ctx| {
            let layout = Arc::new(BrickLayout::new(
                Box3::cube(8),
                4,
                1,
                BrickOrdering::SurfaceMajor,
            ));
            exchange_bricked(&mut ctx, d, &mut BrickedField::new(layout), 1);
        });
    }

    #[test]
    fn array_exchange_fills_ghosts_at_depth() {
        for grid in [Point3::new(2, 1, 1), Point3::splat(2)] {
            let decomp = Decomposition::new(Box3::cube(16), grid);
            let n = decomp.num_ranks();
            let d = &decomp;
            let depth = 2;
            RankWorld::run(n, move |mut ctx| {
                let sub = d.subdomain(ctx.rank());
                let mut a = Array3::from_fn(sub, depth, |p| {
                    if sub.contains(p) {
                        idx_fn(p)
                    } else {
                        f64::NAN
                    }
                });
                exchange_array(&mut ctx, d, &mut a, depth, 3);
                let dom = d.domain().extent();
                sub.grow(depth).for_each(|p| {
                    let expect = idx_fn(p.rem_euclid(dom));
                    assert_eq!(a[p], expect, "rank {} cell {p:?}", ctx.rank());
                });
            });
        }
    }

    #[test]
    fn trace_captures_all_ranks_with_serial_comm_tracks() {
        // A capture around RankWorld::run must see spans from every rank,
        // and each rank's comm track must be a real timeline: spans
        // strictly ordered, none overlapping.
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(2));
        let n = decomp.num_ranks();
        let d = &decomp;
        let (_, trace) = gmg_trace::capture(|| {
            RankWorld::run(n, move |mut ctx| {
                let sub = d.subdomain(ctx.rank());
                let mut a = Array3::from_fn(sub, 1, idx_fn);
                exchange_array(&mut ctx, d, &mut a, 1, 5);
                ctx.barrier();
            });
        });
        assert_eq!(trace.ranks().len(), n);
        for rank in trace.ranks() {
            assert!(
                trace.track_is_serial(rank, gmg_trace::Track::Comm),
                "rank {rank} comm track has overlapping spans"
            );
            let evs = trace.track_events(rank, gmg_trace::Track::Comm);
            assert!(!evs.is_empty());
            // Halo traffic on 8 ranks: 26 sends, 26 recvs, plus packs,
            // unpacks, and collective barrier traffic.
            let ops: Vec<_> = evs.iter().map(|e| e.op.name()).collect();
            for needed in ["pack", "send", "recv", "unpack"] {
                assert!(ops.contains(&needed), "rank {rank} missing {needed}");
            }
        }
    }

    #[test]
    fn every_recv_span_ends_after_its_matching_send_begins() {
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 2, 1));
        let n = decomp.num_ranks();
        let d = &decomp;
        let (_, trace) = gmg_trace::capture(|| {
            RankWorld::run(n, move |mut ctx| {
                let sub = d.subdomain(ctx.rank());
                let mut a = Array3::from_fn(sub, 1, idx_fn);
                exchange_array(&mut ctx, d, &mut a, 1, 6);
            });
        });
        let sends: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.op.name() == "send" && e.tag.is_some())
            .collect();
        let recvs: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.op.name() == "recv" && e.tag.is_some())
            .collect();
        assert!(!recvs.is_empty());
        for r in &recvs {
            // The matching send: posted by my peer, addressed to me, same
            // tag. A recv cannot complete before that send was posted.
            let s = sends
                .iter()
                .find(|s| s.rank == r.peer.unwrap() && s.peer == Some(r.rank) && s.tag == r.tag)
                .unwrap_or_else(|| panic!("no matching send for recv {r:?}"));
            assert!(
                r.ts_ns + r.dur_ns >= s.ts_ns,
                "recv {r:?} ended before matching send {s:?} began"
            );
            // A message counts once, on its send.
            assert_eq!((r.counters.messages, s.counters.messages), (0, 1));
        }
    }

    #[test]
    fn repeated_exchanges_with_distinct_tag_bases() {
        // Two back-to-back exchanges must not cross-match.
        let decomp = Decomposition::new(Box3::cube(8), Point3::new(2, 1, 1));
        let d = &decomp;
        RankWorld::run(2, move |mut ctx| {
            let sub = d.subdomain(ctx.rank());
            let mut a = Array3::from_fn(sub, 1, idx_fn);
            exchange_array(&mut ctx, d, &mut a, 1, 10);
            // Mutate and exchange again.
            let valid = a.valid();
            a.for_each_mut(valid, |_, v| *v += 1.0);
            exchange_array(&mut ctx, d, &mut a, 1, 11);
            let dom = d.domain().extent();
            sub.grow(1).for_each(|p| {
                assert_eq!(a[p], idx_fn(p.rem_euclid(dom)) + 1.0);
            });
        });
    }

    // ---------------------------------------------------------------
    // Resilience
    // ---------------------------------------------------------------

    #[test]
    fn try_run_collects_every_failed_rank() {
        let err = RankWorld::try_run(4, |ctx| {
            if ctx.rank() % 2 == 1 {
                panic!("rank {} exploded", ctx.rank());
            }
            ctx.rank()
        })
        .unwrap_err();
        assert_eq!(err.nranks, 4);
        assert_eq!(err.ranks(), vec![1, 3]);
        assert!(err.failures[0].message.contains("rank 1 exploded"));
        assert!(err.failures[1].message.contains("rank 3 exploded"));
    }

    #[test]
    fn run_panics_with_structured_report() {
        let caught = std::panic::catch_unwind(|| {
            RankWorld::run(3, |ctx| {
                if ctx.rank() == 2 {
                    panic!("boom");
                }
            });
        })
        .unwrap_err();
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("1 of 3 ranks failed"), "{msg}");
        assert!(msg.contains("rank 2: boom"), "{msg}");
    }

    #[test]
    fn recv_timeout_times_out_cleanly_and_never_loses_messages() {
        RankWorld::run(2, |mut ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![5.0]);
                ctx.barrier();
            } else {
                // Tag 9 never arrives; tag 5 arrives meanwhile and must be
                // stashed by the failed wait, not lost.
                let err = ctx
                    .recv_timeout(0, 9, Duration::from_millis(50))
                    .unwrap_err();
                assert!(matches!(
                    err,
                    CommError::Timeout {
                        from: 0,
                        tag: 9,
                        ..
                    }
                ));
                ctx.barrier();
                assert_eq!(ctx.recv(0, 5), vec![5.0]);
            }
        });
    }

    #[test]
    fn try_recv_is_nonblocking() {
        RankWorld::run(2, |mut ctx| {
            if ctx.rank() == 0 {
                ctx.barrier();
                ctx.send(1, 3, vec![3.0]);
            } else {
                assert_eq!(ctx.try_recv(0, 3).unwrap(), None);
                ctx.barrier();
                // Poll until the in-flight send lands.
                loop {
                    if let Some(p) = ctx.try_recv(0, 3).unwrap() {
                        assert_eq!(p, vec![3.0]);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    }

    /// Exchanges and collectives running over a transport that drops,
    /// reorders, duplicates, and corrupts — the ARQ layer must make the
    /// result identical to the fault-free run.
    #[test]
    fn exchange_survives_lossy_transport() {
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(2));
        let n = decomp.num_ranks();
        let d = &decomp;
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan::new(FaultConfig::lossy(0.05), seed);
            let sums = RankWorld::run_with_faults(n, &plan, move |mut ctx| {
                let sub = d.subdomain(ctx.rank());
                let mut a =
                    Array3::from_fn(
                        sub,
                        1,
                        |p| {
                            if sub.contains(p) {
                                idx_fn(p)
                            } else {
                                f64::NAN
                            }
                        },
                    );
                exchange_array(&mut ctx, d, &mut a, 1, 2);
                let dom = d.domain().extent();
                let mut sum = 0.0;
                sub.grow(1).for_each(|p| {
                    assert_eq!(a[p], idx_fn(p.rem_euclid(dom)), "seed {seed}");
                    sum += a[p];
                });
                ctx.allreduce_sum(sum)
            })
            .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            assert!(sums.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn lossy_transport_actually_injected_faults() {
        // Guard against the ARQ test passing vacuously: the fault track
        // must show injections and recoveries.
        let plan = FaultPlan::new(FaultConfig::lossy(0.2), 7);
        let (_, trace) = gmg_trace::capture(|| {
            RankWorld::run_with_faults(2, &plan, |mut ctx| {
                for round in 0..50u64 {
                    let peer = 1 - ctx.rank();
                    ctx.send(peer, round, vec![round as f64]);
                    assert_eq!(ctx.recv(peer, round), vec![round as f64]);
                }
            })
            .unwrap();
        });
        let faults: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.track == gmg_trace::Track::Fault)
            .map(|e| e.op.name())
            .collect();
        assert!(!faults.is_empty());
        assert!(faults.contains(&"arq:drop"));
        assert!(faults.contains(&"arq:retransmit"));
        assert!(
            faults.contains(&"arq:reject"),
            "corruption was never detected: {faults:?}"
        );
    }

    #[test]
    fn arq_metrics_record_retransmits_under_loss() {
        // The tallies are per rank and the rings this test's own, so
        // nothing here is shared with tests running in parallel; at 20 %
        // the seeded fates drop, corrupt and duplicate on every run.
        let plan = FaultPlan::new(FaultConfig::lossy(0.2), 11);
        let rings = gmg_flight::FlightWorld::with_capacity(2, 1 << 12);
        let per_rank = RankWorld::run_with_faults(2, &plan, |mut ctx| {
            let _ring = rings.install(ctx.rank());
            for round in 0..50u64 {
                let peer = 1 - ctx.rank();
                ctx.send(peer, round, vec![round as f64]);
                assert_eq!(ctx.recv(peer, round), vec![round as f64]);
            }
            ctx.arq_stats()
        })
        .unwrap();
        let mut arq = ArqStats::default();
        for s in per_rank {
            arq += s;
        }
        assert!(
            arq.retransmits >= 1 && arq.retransmitted_messages >= 1,
            "20% loss over 100 messages must retransmit: {arq:?}"
        );
        assert!(arq.checksum_failures >= 1, "corruption detected: {arq:?}");
        assert!(arq.dedup_drops >= 1, "duplicates dropped: {arq:?}");
        let retransmits: Vec<_> = (rings.snapshot().into_iter())
            .flat_map(|log| log.events)
            .filter(|e| e.op == "arq:retransmit")
            .collect();
        assert!(!retransmits.is_empty());
        assert!(
            retransmits.iter().all(|e| e.dur_ns > 0),
            "backoff delays are nonzero"
        );
    }

    #[test]
    fn killed_rank_is_reported_not_hung() {
        let cfg = FaultConfig::kill_rank(1, 3);
        let mut plan = FaultPlan::new(cfg, 0);
        // Keep peers from blocking forever on the dead rank.
        plan.retry.op_timeout = Duration::from_millis(200);
        plan.retry.max_attempts = 4;
        let err = RankWorld::run_with_faults(4, &plan, |mut ctx| {
            // Ring exchange: everyone depends on everyone transitively.
            for round in 0..10u64 {
                let next = (ctx.rank() + 1) % ctx.nranks();
                let prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
                ctx.send(next, round, vec![ctx.rank() as f64]);
                let got = ctx.recv(prev, round);
                assert_eq!(got, vec![prev as f64]);
            }
        })
        .unwrap_err();
        // The killed rank reports Killed; at least one peer reports the
        // timeout it caused. No hang, no unstructured panic.
        assert!(err.ranks().contains(&1), "{err}");
        let killed = err.failures.iter().find(|f| f.rank == 1).unwrap();
        assert!(killed.message.contains("fault injection"), "{err}");
        assert!(
            err.failures
                .iter()
                .any(|f| f.rank != 1 && f.message.contains("timed out")),
            "{err}"
        );
    }

    #[test]
    fn stalled_rank_delays_but_completes() {
        let cfg = FaultConfig {
            stall: Some((
                crate::fault::ControlSpec { rank: 0, at_op: 2 },
                Duration::from_millis(30),
            )),
            ..Default::default()
        };
        let plan = FaultPlan::new(cfg, 0);
        let out = RankWorld::run_with_faults(2, &plan, |mut ctx| {
            let peer = 1 - ctx.rank();
            ctx.send(peer, 1, vec![ctx.rank() as f64]);
            let got = ctx.recv(peer, 1)[0];
            ctx.allreduce_sum(got)
        })
        .unwrap();
        assert_eq!(out, vec![1.0, 1.0]);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        // run_with_faults with an inactive config must agree with run.
        let plan = FaultPlan::new(FaultConfig::default(), 0);
        let a =
            RankWorld::run_with_faults(3, &plan, |mut ctx| ctx.allreduce_sum(ctx.rank() as f64))
                .unwrap();
        let b = RankWorld::run(3, |mut ctx| ctx.allreduce_sum(ctx.rank() as f64));
        assert_eq!(a, b);
    }

    #[test]
    fn recv_timeout_deadline_holds_under_continuous_mismatched_traffic() {
        // Regression guard: the wait deadline is computed *once*. A
        // steady stream of non-matching messages (each of which wakes
        // the receive loop) must neither extend the timeout nor lose a
        // single stashed message.
        let out = RankWorld::run(2, |mut ctx| {
            if ctx.rank() == 0 {
                let start = Instant::now();
                let mut i = 0u64;
                while start.elapsed() < Duration::from_millis(400) {
                    ctx.send(1, 500 + (i % 7), vec![i as f64]);
                    i += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                ctx.send(1, 999, vec![-1.0]);
                i as f64
            } else {
                let start = Instant::now();
                let err = ctx.recv_timeout(0, 999_999, Duration::from_millis(150));
                let waited = start.elapsed();
                assert!(
                    matches!(err, Err(CommError::Timeout { .. })),
                    "expected a timeout, got {err:?}"
                );
                assert!(
                    waited >= Duration::from_millis(140),
                    "early return: {waited:?}"
                );
                assert!(
                    waited < Duration::from_millis(390),
                    "mismatched traffic restarted the deadline: {waited:?}"
                );
                // Every flooded message is stashed, none lost.
                assert_eq!(ctx.recv(0, 999), vec![-1.0]);
                let mut got = 0u64;
                loop {
                    let mut any = false;
                    for t in 500..507 {
                        if let Ok(Some(_)) = ctx.try_recv(0, t) {
                            got += 1;
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                }
                got as f64
            }
        });
        assert_eq!(out[0], out[1], "stashed count must equal the flood count");
    }

    /// Under real loss the timer still recovers every message, and the
    /// estimator never learns from a message it had to send twice.
    #[cfg(unix)]
    #[test]
    fn lossy_socket_link_recovers_and_samples_only_clean_round_trips() {
        const ROUNDS: u64 = 60;
        let plan = FaultPlan::new(FaultConfig::lossy(0.05), 5);
        let stats = RankWorld::run_socket_with_faults(2, &plan, |mut ctx| {
            let peer = 1 - ctx.rank();
            for round in 0..ROUNDS {
                let msg: Vec<f64> = (0..1000).map(|i| (round * 1000 + i) as f64).collect();
                ctx.send(peer, round, msg.clone());
                assert_eq!(ctx.recv(peer, round), msg);
            }
            ctx.arq_stats()
        })
        .unwrap();
        for s in &stats {
            assert_eq!(s.first_sends, ROUNDS);
            assert!(s.retransmits > 0, "5% loss must retransmit: {s:?}");
            assert!(s.retransmits >= s.retransmitted_messages);
            // One sample at most per message, none for a retransmitted one.
            assert!(s.rtt_samples > 0);
            assert!(
                s.rtt_samples + s.retransmitted_messages <= s.first_sends,
                "a retransmitted message was sampled: {s:?}"
            );
        }
    }

    /// Satellite for the transport split: the *same* seeded fault plan
    /// drives the thread backend and the Unix-socket backend through
    /// the same wire fates, and the ARQ layer must deliver bit-identical
    /// payload sequences on both.
    #[cfg(unix)]
    #[test]
    fn thread_and_socket_transports_deliver_identically_under_same_faults() {
        const NRANKS: usize = 3;
        const MSGS: u64 = 6;
        let body = |mut ctx: RankCtx| {
            let (me, n) = (ctx.rank(), ctx.nranks());
            for to in (0..n).filter(|&to| to != me) {
                for t in 0..MSGS {
                    ctx.send(
                        to,
                        100 + t,
                        vec![(me * 1000) as f64 + t as f64, t as f64 * 0.5],
                    );
                }
            }
            // Receive in a per-rank seeded shuffle, identical across
            // backends, so "delivered order" is a meaningful sequence.
            let mut order: Vec<(usize, u64)> = (0..n)
                .filter(|&f| f != me)
                .flat_map(|f| (0..MSGS).map(move |t| (f, 100 + t)))
                .collect();
            let mut s = me as u64 ^ 0x9e37_79b9_7f4a_7c15;
            for i in (1..order.len()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            order
                .into_iter()
                .map(|(f, t)| (f, t, ctx.recv(f, t)))
                .collect::<Vec<_>>()
        };
        for seed in [1u64, 3, 7] {
            let cfg = FaultConfig {
                drop_rate: 0.08,
                duplicate_rate: 0.05,
                delay_rate: 0.05,
                max_delay_slots: 3,
                corrupt_rate: 0.03,
                ..Default::default()
            };
            let plan = FaultPlan::new(cfg, seed);
            let threads = RankWorld::run_with_faults(NRANKS, &plan, body).unwrap();
            let sockets = RankWorld::run_socket_with_faults(NRANKS, &plan, body).unwrap();
            assert_eq!(
                threads, sockets,
                "seed {seed}: both transports must deliver identical payload sequences"
            );
        }
    }
}
