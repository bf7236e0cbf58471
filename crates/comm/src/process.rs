//! One OS process per rank, with elastic membership.
//!
//! A [`ProcessWorld`] controller spawns `nranks` child processes (by
//! re-invoking the current executable with its rank's spec in the one
//! `GMG_PROC` environment variable), hands them a socket transport ([`crate::socket`]), and
//! then *watches* them: every child runs a heartbeat thread, and the
//! controller runs a failure detector over heartbeats plus `waitpid`.
//! When a rank dies — a real `SIGKILL`, a crash, or a fault-injected
//! kill that escalated to a process exit — the controller:
//!
//! 1. respawns a replacement process for the dead rank (its spec flags
//!    it as rejoining),
//! 2. broadcasts `PARK(epoch+1)` to the survivors, who finish their
//!    current operation, report their latest checkpointed cycle, and
//!    block at the membership barrier,
//! 3. waits for the replacement's `READY` (it restores the newest valid
//!    checkpoint it can find for its rank),
//! 4. computes the world-wide resume point (the *minimum* reported
//!    checkpoint cycle — every rank keeps all of its checkpoint files,
//!    so the minimum is loadable everywhere), and
//! 5. broadcasts `RESUME(epoch+1, resume)`; every rank fences off the
//!    old epoch (ARQ state, stashes, and in-flight frames from the dead
//!    world are discarded) and re-runs from the agreed cycle.
//!
//! Control traffic rides dedicated Unix datagram sockets in the world
//! directory — `c.sock` (controller inbound) and `m<r>.sock` (rank *r*'s
//! membership inbox) — and is framed by the same [`crate::frame`] codec
//! as the data plane (kind [`crate::FrameKind::Control`], opcode in
//! `tag`). The data plane (`d<r>.sock`) never carries control frames and
//! vice versa.
//!
//! The protocol itself — which control frame goes out when, the phases,
//! every timeout and resend interval — is the crate's `membership`: one
//! `Controller` core and one `Member` core per rank, state machines that
//! read no clock and touch no socket or process. This module is their IO
//! shell: it binds the sockets, spawns, kills and reaps the children, runs
//! each child's heartbeat thread and writes the flight dumps. Each side has
//! one loop that reads the clock once per turn, feeds its core what
//! arrived, and carries out what the core asks. A running rank's only
//! membership cost is `MembershipClient::poll_park`: one nonblocking
//! `recv` per `RankCtx::pump`, no allocation and no clock read.
//!
//! Each rejoin is reported as a [`RejoinEvent`] in the
//! [`ProcessReport`]: who died, and the epoch and cycle the world resumed
//! at.

use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmg_trace::probe;
use gmg_trace::ObsConfig;

use crate::fault::{FaultPlan, RetryPolicy};
use crate::frame::{Frame, FrameKind};
pub use crate::membership::RejoinEvent;
use crate::membership::{ctl_frame, Controller, ControllerIn, ControllerOut, Member, MemberIn};
use crate::membership::{MemberOut, BEAT_INTERVAL, MEMBER_POLL, OP_BEAT, OP_DONE};
use crate::runtime::RankCtx;
use crate::socket::{SocketKind, SocketTransport};
use crate::transport::Transport;

/// Upper bound on an encoded control frame: the header and a handful of
/// payload words.
const CTL_FRAME_MAX: usize = crate::frame::HEADER_LEN + 8 * 8;

fn ctl_sock_path(dir: &Path) -> PathBuf {
    dir.join("c.sock")
}

fn member_sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("m{rank}.sock"))
}

fn out_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("out_r{rank}.txt"))
}

/// Where rank-rejoin checkpoints live inside a world directory.
pub fn checkpoint_dir(dir: &Path) -> PathBuf {
    dir.join("ckpt")
}

/// A control frame, if `buf` holds one.
fn decode_ctl(buf: &[u8]) -> Option<Frame> {
    let f = Frame::decode(buf).ok()?;
    (f.kind == FrameKind::Control).then_some(f)
}

/// The next control frame on `sock`, waiting at most `timeout`.
fn recv_ctl(sock: &UnixDatagram, timeout: Duration) -> Option<Frame> {
    sock.set_read_timeout(Some(timeout.max(Duration::from_micros(100))))
        .ok()?;
    let mut buf = [0u8; CTL_FRAME_MAX];
    let n = sock.recv(&mut buf).ok()?;
    decode_ctl(&buf[..n])
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// The per-rank membership endpoint living inside a child process: the
/// shell around its [`Member`] core. `RankCtx` polls it from `pump`
/// (cheap nonblocking read) and calls into it to park/rejoin; a
/// background thread keeps heartbeats flowing even while the rank is deep
/// in compute.
pub(crate) struct MembershipClient {
    core: Member,
    out: Vec<MemberOut>,
    /// The core's time base.
    clock: Instant,
    /// The time of the wait's last turn. A running member sets no timer,
    /// so [`MembershipClient::poll_park`] hands the core this instead of
    /// reading the clock.
    now: Duration,
    rank: usize,
    m_sock: UnixDatagram,
    tx: UnixDatagram,
    ctl_path: PathBuf,
    ckpt_dir: PathBuf,
    progress: Arc<AtomicU64>,
    stop_hb: Arc<AtomicBool>,
}

impl Drop for MembershipClient {
    fn drop(&mut self) {
        self.stop_hb.store(true, Ordering::Relaxed);
    }
}

impl MembershipClient {
    pub(crate) fn rejoining(&self) -> bool {
        self.core.rejoining()
    }

    pub(crate) fn ckpt_dir(&self) -> &Path {
        &self.ckpt_dir
    }

    pub(crate) fn set_progress(&self, cycle: u64) {
        self.progress.store(cycle, Ordering::Relaxed);
    }

    /// Nonblocking membership poll: drains the inbox into the core and
    /// returns the pending park epoch, if any.
    pub(crate) fn poll_park(&mut self) -> Option<u64> {
        // The inbox stays nonblocking between parks, and a control frame
        // is a header plus a word or two: no mode switch, no allocation.
        let mut buf = [0u8; CTL_FRAME_MAX];
        while let Ok(n) = self.m_sock.recv(&mut buf) {
            if let Some(f) = decode_ctl(&buf[..n]) {
                let _ = self
                    .core
                    .handle(self.now, MemberIn::Frame(f), &mut self.out);
            }
        }
        self.core.parked()
    }

    /// Stop at the membership barrier and block until the controller's
    /// `RESUME`: a survivor (`ready == false`) reports its latest
    /// checkpointed cycle, a rejoined replacement the newest checkpoint it
    /// found on disk (`-1` for none). Returns `(new_epoch, resume)`, where
    /// `resume` is `0` to restart from scratch and `c + 1` to re-run from
    /// the cycle-`c` checkpoint.
    pub(crate) fn report(&mut self, ready: bool, ckpt: i64) -> (u64, u64) {
        // A parked ring is exactly what a membership postmortem wants to
        // see; the controller merges these per-process dumps.
        let reason = if ready {
            "membership-rejoin"
        } else {
            "membership-park"
        };
        let (rank, epoch) = (self.rank, self.core.epoch());
        let detail = format!("rank {rank} (epoch {epoch}, checkpoint cycle {ckpt})");
        let _ = gmg_flight::dump_installed(reason, &detail);
        self.wait(MemberIn::Report { ready, ckpt })
    }

    /// The member's one wait loop — HELLO until GO, or a report until
    /// RESUME — returning the epoch entered and the resume point.
    fn wait(&mut self, mut input: MemberIn) -> (u64, u64) {
        self.m_sock.set_nonblocking(false).ok();
        loop {
            self.now = self.clock.elapsed();
            if let Err(e) = self.core.handle(self.now, input, &mut self.out) {
                panic!("{e}");
            }
            let mut entered = None;
            for o in self.out.drain(..) {
                match o {
                    MemberOut::Send(f) => {
                        let _ = self.tx.send_to(&f.encode(), &self.ctl_path);
                    }
                    MemberOut::Go(epoch) => entered = Some((epoch, 0)),
                    MemberOut::Resume { epoch, resume } => entered = Some((epoch, resume)),
                }
            }
            if let Some(entered) = entered {
                self.m_sock.set_nonblocking(true).ok();
                return entered;
            }
            input = recv_ctl(&self.m_sock, MEMBER_POLL).map_or(MemberIn::Tick, MemberIn::Frame);
        }
    }
}

/// Beat every [`BEAT_INTERVAL`] with the rank's progress until `stop`.
fn spawn_heartbeat(
    rank: usize,
    ctl: PathBuf,
    progress: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let tx = UnixDatagram::unbound()?;
    std::thread::Builder::new()
        .name(format!("gmg-heartbeat-{rank}"))
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let progress = Some(progress.load(Ordering::Relaxed));
                let beat = ctl_frame(rank as u32, OP_BEAT, 0, 0, progress).encode();
                let _ = tx.send_to(&beat, &ctl);
                std::thread::sleep(BEAT_INTERVAL);
            }
        })?;
    Ok(())
}

/// The environment variable a spawned rank finds its [`ChildSpec`] in.
const CHILD_SPEC: &str = "GMG_PROC";

/// What a [`ProcessWorld`] controller tells one child: written by
/// `spawn_child`, parsed once by [`run_child_if_spawned`]. One field per
/// line, the fault plan as [`FaultPlan::to_env_string`] (empty for none)
/// and the free-form entry arguments last, so they may hold anything.
struct ChildSpec {
    rank: usize,
    nranks: usize,
    rejoining: bool,
    entry: String,
    dir: PathBuf,
    plan: Option<FaultPlan>,
    args: String,
}

impl ChildSpec {
    fn to_env(&self) -> String {
        let plan = self.plan.as_ref().map(FaultPlan::to_env_string);
        format!(
            "{}\n{}\n{}\n{}\n{}\n{}\n{}",
            self.rank,
            self.nranks,
            u8::from(self.rejoining),
            self.entry,
            self.dir.display(),
            plan.unwrap_or_default(),
            self.args
        )
    }

    fn parse(s: &str) -> Option<ChildSpec> {
        let mut f = s.splitn(7, '\n');
        Some(ChildSpec {
            rank: f.next()?.parse().ok()?,
            nranks: f.next()?.parse().ok()?,
            rejoining: f.next()? == "1",
            entry: f.next()?.to_string(),
            dir: PathBuf::from(f.next()?),
            plan: FaultPlan::from_env_string(f.next()?),
            args: f.next()?.to_string(),
        })
    }

    /// This process's spec, if a controller spawned it.
    fn from_env() -> Option<ChildSpec> {
        let s = std::env::var(CHILD_SPEC).ok()?;
        Some(ChildSpec::parse(&s).unwrap_or_else(|| panic!("malformed {CHILD_SPEC} spec {s:?}")))
    }
}

/// The world size, when this process is a rank a [`ProcessWorld`]
/// spawned.
pub fn spawned_nranks() -> Option<usize> {
    ChildSpec::from_env().map(|c| c.nranks)
}

/// If this process was spawned by a [`ProcessWorld`] controller, run
/// the rank's entry (via `dispatch(entry_name, ctx, args)`), write the
/// result, and **exit the process** — this never returns in a child.
/// In a normal (non-spawned) process it returns immediately, so binaries
/// and test entries can call it unconditionally at the top of `main`.
pub fn run_child_if_spawned<F>(dispatch: F)
where
    F: FnOnce(&str, RankCtx, &str) -> String,
{
    if let Some(spec) = ChildSpec::from_env() {
        std::process::exit(child_main(spec, dispatch));
    }
}

fn child_main<F>(spec: ChildSpec, dispatch: F) -> i32
where
    F: FnOnce(&str, RankCtx, &str) -> String,
{
    let ChildSpec {
        rank,
        nranks,
        rejoining,
        entry,
        dir,
        plan,
        args,
    } = spec;
    let dir = dir.as_path();
    crate::runtime::keep_freed_memory();
    // A flight ring of our own; parks and panics dump it into the world
    // directory (the controller points `GMG_FLIGHT_DIR` there), where the
    // controller merges all surviving rings.
    let flight_world = gmg_flight::FlightWorld::for_run(nranks, &ObsConfig::from_env());
    let _ring = flight_world.as_ref().map(|w| w.install(rank));
    let _rank = flight_world
        .is_none()
        .then(|| probe::install(Some(rank), None));

    let progress = Arc::new(AtomicU64::new(0));
    let stop_hb = Arc::new(AtomicBool::new(false));

    // Membership inbox first (a respawn rebinds its predecessor's path).
    let m_path = member_sock_path(dir, rank);
    let _ = std::fs::remove_file(&m_path);
    let m_sock = UnixDatagram::bind(&m_path).expect("bind membership socket");
    let ctl_path = ctl_sock_path(dir);
    spawn_heartbeat(rank, ctl_path.clone(), progress.clone(), stop_hb.clone())
        .expect("heartbeat thread");

    // Data endpoint *before* HELLO, so no data frame can race the bind.
    let mut transport = SocketTransport::uds(rank, nranks, dir).expect("bind data socket");

    let mut membership = MembershipClient {
        core: Member::new(Duration::ZERO, rank, rejoining),
        out: Vec::new(),
        clock: Instant::now(),
        now: Duration::ZERO,
        rank,
        m_sock,
        tx: UnixDatagram::unbound().expect("membership send socket"),
        ctl_path: ctl_path.clone(),
        ckpt_dir: checkpoint_dir(dir),
        progress,
        stop_hb,
    };
    let (epoch, _) = membership.wait(MemberIn::Tick);
    transport.set_epoch(epoch);

    // The socket medium is genuinely unreliable (a dying peer absorbs
    // in-flight frames), so the ARQ layer always engages here — a
    // zero-rate plan when no chaos was requested. A *rejoined* rank
    // drops any injected kill: that fault already fired, on the
    // predecessor it replaced.
    let mut plan = plan.unwrap_or(FaultPlan {
        config: Default::default(),
        seed: 1,
        retry: RetryPolicy::default(),
    });
    if rejoining {
        plan.config.kill = None;
    }
    let retry = plan.retry;
    let injector = plan.injector(rank);
    let mut ctx = RankCtx::from_parts(rank, nranks, Box::new(transport), Some(injector), retry);
    ctx.membership = Some(membership);

    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        dispatch(&entry, ctx, &args)
    }));
    match out {
        Ok(result) => {
            // Result file is the authoritative "done" signal: written
            // and renamed *before* the process can exit 0.
            let path = out_path(dir, rank);
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &result).expect("write result");
            std::fs::rename(&tmp, &path).expect("publish result");
            let done = ctl_frame(rank as u32, OP_DONE, 0, 0, None).encode();
            let _ = UnixDatagram::unbound().and_then(|tx| tx.send_to(&done, &ctl_path));
            0
        }
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            let _ = gmg_flight::dump_installed("child-panic", &format!("rank {rank}: {msg}"));
            eprintln!("gmg-comm child rank {rank} panicked: {msg}");
            101
        }
    }
}

// ---------------------------------------------------------------------
// Controller side
// ---------------------------------------------------------------------

/// What a completed process world hands back.
#[derive(Clone, Debug)]
pub struct ProcessReport {
    /// Per-rank result strings, in rank order.
    pub results: Vec<String>,
    /// Every rejoin epoch that happened, in order.
    pub rejoins: Vec<RejoinEvent>,
    /// Transport flavor the world ran on (`"uds"`).
    pub transport: &'static str,
    /// Merged flight dump (all surviving ranks' rings), when any child
    /// dumped one.
    pub flight_dump: Option<PathBuf>,
}

/// Controller/builder for a multi-process rank world.
pub struct ProcessWorld {
    nranks: usize,
    entry: String,
    args: String,
    plan: Option<FaultPlan>,
    child_exe: PathBuf,
    child_args: Vec<String>,
    kill_at: Option<(usize, u64)>,
    max_rejoins: u32,
    deadline: Duration,
}

impl ProcessWorld {
    /// A world of `nranks` processes each running `entry` (a name the
    /// child executable's dispatch function understands). The child
    /// executable defaults to the current one, which must call
    /// [`run_child_if_spawned`] on startup.
    pub fn new(nranks: usize, entry: &str) -> ProcessWorld {
        assert!(nranks >= 1);
        ProcessWorld {
            nranks,
            entry: entry.to_string(),
            args: String::new(),
            plan: None,
            child_exe: std::env::current_exe().expect("current_exe"),
            child_args: Vec::new(),
            kill_at: None,
            max_rejoins: 4,
            deadline: Duration::from_secs(120),
        }
    }

    /// Opaque argument string passed through to the entry.
    pub fn args(mut self, args: &str) -> Self {
        self.args = args.to_string();
        self
    }

    /// Name the wire the ranks speak. There is one, so this only makes
    /// the call site say so.
    pub fn transport(self, kind: SocketKind) -> Self {
        match kind {
            SocketKind::Uds => self,
        }
    }

    /// Run every rank under this seeded fault plan (same plan semantics
    /// as the thread world: fates are deterministic in `(seed, rank)`).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Extra argv for the child executable — e.g. a libtest filter so a
    /// spawned test binary runs only its dispatch entry test.
    pub fn child_args(mut self, args: &[&str]) -> Self {
        self.child_args = args.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Chaos trigger: `SIGKILL` rank `rank`'s process once its
    /// heartbeat-reported progress reaches `cycle`.
    pub fn kill_process_at(mut self, rank: usize, cycle: u64) -> Self {
        assert!(rank < self.nranks);
        self.kill_at = Some((rank, cycle));
        self
    }

    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    /// Spawn, supervise, rejoin as needed, and collect results. A failed
    /// world keeps its directory and prints where it is.
    pub fn run(self) -> Result<ProcessReport, String> {
        static WORLD_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gmg-procworld-{}-{}",
            std::process::id(),
            WORLD_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(checkpoint_dir(&dir)).map_err(|e| e.to_string())?;
        let out = self.run_in(&dir);
        if out.is_ok() {
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            eprintln!("gmg-comm process world kept its directory for debugging: {dir:?}");
        }
        out
    }

    fn run_in(&self, dir: &Path) -> Result<ProcessReport, String> {
        let ctl =
            UnixDatagram::bind(ctl_sock_path(dir)).map_err(|e| format!("bind controller: {e}"))?;
        let mut children = Vec::with_capacity(self.nranks);
        let rejoins = self.supervise(dir, &ctl, &mut children);
        // A failed world leaves no rank behind.
        for child in &mut children {
            if rejoins.is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        let rejoins = rejoins?;
        let results = (0..self.nranks)
            .map(|r| std::fs::read_to_string(out_path(dir, r)).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let flight_dump = merge_child_dumps(dir, &rejoins);
        Ok(ProcessReport {
            results,
            rejoins,
            transport: SocketKind::Uds.as_str(),
            flight_dump,
        })
    }

    /// Spawn the ranks, then the controller's one loop: per turn, wait
    /// for a control frame at most the core's poll interval, read the
    /// clock, hand the core that frame, every child `waitpid` finds gone
    /// and the tick, then carry out what it asked.
    fn supervise(
        &self,
        dir: &Path,
        ctl: &UnixDatagram,
        children: &mut Vec<Child>,
    ) -> Result<Vec<RejoinEvent>, String> {
        for r in 0..self.nranks {
            children.push(self.spawn_child(dir, r, false)?);
        }
        let tx = UnixDatagram::unbound().map_err(|e| e.to_string())?;
        let clock = Instant::now();
        let (n, deadline) = (self.nranks, self.deadline);
        let mut core = Controller::new(Duration::ZERO, n, self.max_rejoins, deadline, self.kill_at);
        let mut out = Vec::new();
        loop {
            let frame = recv_ctl(ctl, core.poll_interval());
            let now = clock.elapsed();
            if let Some(f) = frame {
                core.handle(now, ControllerIn::Frame(f), &mut out)?;
            }
            // The core ignores a rank it already counts as exited.
            for (rank, child) in children.iter_mut().enumerate() {
                if let Ok(Some(st)) = child.try_wait() {
                    let clean = st.success() && out_path(dir, rank).exists();
                    let status = st.to_string();
                    core.handle(
                        now,
                        ControllerIn::Exit {
                            rank,
                            clean,
                            status,
                        },
                        &mut out,
                    )?;
                }
            }
            core.handle(now, ControllerIn::Tick, &mut out)?;
            for o in out.drain(..) {
                match o {
                    ControllerOut::Send(r, f) => {
                        let _ = tx.send_to(&f.encode(), member_sock_path(dir, r));
                    }
                    ControllerOut::Spawn(r) => children[r] = self.spawn_child(dir, r, true)?,
                    ControllerOut::Kill(r) => {
                        let _ = children[r].kill();
                        let _ = children[r].wait();
                    }
                    ControllerOut::Finish => return Ok(core.rejoins),
                }
            }
        }
    }

    fn spawn_child(&self, dir: &Path, rank: usize, rejoin: bool) -> Result<Child, String> {
        let spec = ChildSpec {
            rank,
            nranks: self.nranks,
            rejoining: rejoin,
            entry: self.entry.clone(),
            dir: dir.to_path_buf(),
            plan: self.plan.clone(),
            args: self.args.clone(),
        };
        let mut cmd = Command::new(&self.child_exe);
        cmd.args(&self.child_args)
            .env(CHILD_SPEC, spec.to_env())
            // Children dump flight rings into the world dir, where the
            // controller finds and merges them.
            .env("GMG_FLIGHT_DIR", dir)
            .stdin(Stdio::null());
        let log =
            std::fs::File::create(dir.join(format!("r{rank}.log"))).map_err(|e| e.to_string())?;
        cmd.stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log);
        cmd.spawn().map_err(|e| format!("spawn rank {rank}: {e}"))
    }
}

/// Merge every per-child flight dump found in the world directory into
/// one world-wide dump under the controller's flight base dir.
fn merge_child_dumps(dir: &Path, rejoins: &[RejoinEvent]) -> Option<PathBuf> {
    let mut sources: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("flightdump_"))
        })
        .collect();
    if sources.is_empty() {
        return None;
    }
    sources.sort();
    let detail = if rejoins.is_empty() {
        "process world".to_string()
    } else {
        rejoins
            .iter()
            .map(|e| {
                format!(
                    "rank {} died and was rejoined at epoch {} (resume cycle {})",
                    e.rank, e.epoch, e.resume_cycle
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    };
    gmg_flight::merge_dumps(&ObsConfig::from_env(), &sources, "process-world", &detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CommError;

    const TOTAL_CYCLES: u64 = 12;
    const CHILD_ARGS: &[&str] = &["proc_child_entry", "--test-threads=1", "--nocapture"];

    /// Entry bodies run in *spawned child processes*, dispatched by name.
    fn dispatch(entry: &str, mut ctx: RankCtx, _args: &str) -> String {
        match entry {
            "ring" => ring_once(&mut ctx),
            "rejoin_ring" => rejoin_ring(ctx),
            other => panic!("unknown process-test entry {other:?}"),
        }
    }

    #[test]
    fn child_spec_round_trips_through_its_one_variable() {
        let mut plan = FaultPlan::new(crate::FaultConfig::lossy(0.25), 9);
        plan.config.kill = Some(crate::fault::ControlSpec { rank: 3, at_op: 40 });
        for (plan, args) in [(Some(plan), "a b\nc=d;e"), (None, "")] {
            let spec = ChildSpec {
                rank: 3,
                nranks: 8,
                rejoining: plan.is_some(),
                entry: "elastic".into(),
                dir: PathBuf::from("/tmp/world 1"),
                plan,
                args: args.into(),
            };
            let back = ChildSpec::parse(&spec.to_env()).expect("own spec parses");
            assert_eq!(
                (back.rank, back.nranks, back.rejoining),
                (3, 8, spec.rejoining)
            );
            assert_eq!(
                (back.entry, back.dir, back.args),
                (spec.entry, spec.dir, spec.args)
            );
            assert_eq!(
                back.plan.map(|p| p.to_env_string()),
                spec.plan.map(|p| p.to_env_string())
            );
        }
        assert!(ChildSpec::parse("3\n8").is_none());
    }

    /// The hook a spawned copy of this test binary lands in (the
    /// controller passes a libtest filter selecting exactly this test).
    /// In a normal run it is an instant no-op.
    #[test]
    fn proc_child_entry() {
        run_child_if_spawned(dispatch);
    }

    fn ring_once(ctx: &mut RankCtx) -> String {
        let (n, me) = (ctx.nranks(), ctx.rank());
        ctx.try_send((me + 1) % n, 7, vec![me as f64 * 2.0])
            .unwrap();
        let got = ctx
            .recv_timeout((me + n - 1) % n, 7, Duration::from_secs(20))
            .unwrap();
        format!("{}", got[0])
    }

    // --- checkpointing for the rejoin entry (kept per cycle, bit-exact
    // --- payload via the f64 bit pattern) ---

    fn ck_path(dir: &Path, me: usize, cycle: u64) -> PathBuf {
        dir.join(format!("t{me}_c{cycle}.ck"))
    }

    fn save_ck(dir: &Path, me: usize, cycle: u64, acc: f64) {
        let p = ck_path(dir, me, cycle);
        let tmp = p.with_extension("tmp");
        std::fs::write(&tmp, format!("{:x}", acc.to_bits())).unwrap();
        std::fs::rename(&tmp, &p).unwrap();
    }

    fn load_ck(dir: &Path, me: usize, cycle: u64) -> Option<f64> {
        let s = std::fs::read_to_string(ck_path(dir, me, cycle)).ok()?;
        u64::from_str_radix(s.trim(), 16).ok().map(f64::from_bits)
    }

    fn latest_ck(dir: &Path, me: usize) -> i64 {
        let prefix = format!("t{me}_c");
        let mut best = -1i64;
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                if let Some(c) = e
                    .file_name()
                    .to_str()
                    .and_then(|n| n.strip_prefix(&prefix)?.strip_suffix(".ck")?.parse().ok())
                {
                    best = best.max(c);
                }
            }
        }
        best
    }

    fn ring_step(ctx: &mut RankCtx, cycle: u64) -> Result<f64, CommError> {
        let (n, me) = (ctx.nranks(), ctx.rank());
        ctx.try_send(
            (me + 1) % n,
            cycle + 10,
            vec![(cycle * 100 + me as u64) as f64],
        )?;
        let got = ctx.recv_timeout((me + n - 1) % n, cycle + 10, Duration::from_secs(30))?;
        Ok(got[0])
    }

    /// A miniature elastic solve: per-cycle ring exchange, per-cycle
    /// checkpoint, park-on-membership-change, resume from the agreed
    /// cycle. This is the same state machine `gmg`'s solver runs at
    /// scale.
    fn rejoin_ring(mut ctx: RankCtx) -> String {
        let dir = ctx.checkpoint_dir().expect("membership checkpoint dir");
        let me = ctx.rank();
        let mut acc = 0.0f64;
        let mut saved: i64 = -1;
        let mut c = 0u64;
        if ctx.membership_rejoining() {
            let (_epoch, enc) = ctx.rejoin_ready(latest_ck(&dir, me));
            if enc > 0 {
                acc = load_ck(&dir, me, enc - 1).expect("agreed checkpoint must exist");
                c = enc;
                saved = enc as i64 - 1;
            }
        }
        while c < TOTAL_CYCLES {
            ctx.membership_progress(c);
            match ring_step(&mut ctx, c) {
                Ok(v) => {
                    acc += v;
                    save_ck(&dir, me, c, acc);
                    saved = c as i64;
                    c += 1;
                    // Pace the solve so the progress-triggered SIGKILL
                    // lands mid-run, not after the finish line.
                    std::thread::sleep(Duration::from_millis(30));
                }
                Err(CommError::Parked { .. }) => {
                    let (_epoch, enc) = ctx.park_for_rejoin(saved);
                    if enc > 0 {
                        acc = load_ck(&dir, me, enc - 1).expect("agreed checkpoint must exist");
                        c = enc;
                        saved = enc as i64 - 1;
                    } else {
                        acc = 0.0;
                        c = 0;
                        saved = -1;
                    }
                }
                Err(e) => panic!("rank {me} failed at cycle {c}: {e}"),
            }
        }
        format!("{:x}", acc.to_bits())
    }

    fn expected_acc(me: usize, n: usize) -> f64 {
        let left = (me + n - 1) % n;
        let mut acc = 0.0;
        for c in 0..TOTAL_CYCLES {
            acc += (c * 100 + left as u64) as f64;
        }
        acc
    }

    #[test]
    fn process_world_runs_a_ring_over_uds() {
        let report = ProcessWorld::new(3, "ring")
            .transport(SocketKind::Uds)
            .child_args(CHILD_ARGS)
            .deadline(Duration::from_secs(60))
            .run()
            .expect("process world");
        assert_eq!(report.transport, "uds");
        assert!(report.rejoins.is_empty());
        for (me, r) in report.results.iter().enumerate() {
            let left = (me + 2) % 3;
            assert_eq!(r, &format!("{}", left as f64 * 2.0), "rank {me}");
        }
    }

    #[test]
    fn sigkill_mid_run_is_rejoined_from_checkpoint_bit_exactly() {
        let victim = 1usize;
        let report = ProcessWorld::new(3, "rejoin_ring")
            .transport(SocketKind::Uds)
            .child_args(CHILD_ARGS)
            .kill_process_at(victim, 5)
            .deadline(Duration::from_secs(90))
            .run()
            .expect("rejoin world");

        assert_eq!(report.rejoins.len(), 1, "exactly one rejoin epoch");
        let ev = &report.rejoins[0];
        assert_eq!((ev.rank, ev.epoch), (victim, 1));
        assert!(
            ev.resume_cycle >= 0,
            "kill at progress 5 follows checkpoints"
        );
        assert!(ev.resume_cycle < TOTAL_CYCLES as i64);

        // The recovered world's answers are bit-identical to an
        // unfaulted run's.
        for (me, r) in report.results.iter().enumerate() {
            let got = f64::from_bits(u64::from_str_radix(r.trim(), 16).unwrap());
            assert_eq!(
                got.to_bits(),
                expected_acc(me, 3).to_bits(),
                "rank {me}: resume must be bit-exact"
            );
        }

        // The merged flight dump exists and its detail names the dead
        // rank and the epoch it rejoined into.
        let dump = report.flight_dump.expect("merged flight dump");
        let bundle = gmg_flight::load_dump(&dump).unwrap();
        assert_eq!(bundle.reason, "process-world");
        assert!(bundle.detail.contains(&format!("rank {victim} died")));
        assert!(bundle.logs.len() >= 3);
        // The per-process rings sit on one time base: every receive whose
        // `(peer, seq)` names a send recorded to it is joined to that send.
        let trace = gmg_flight::rebuild_trace(&bundle.logs);
        let posted: std::collections::HashSet<_> = trace
            .events
            .iter()
            .filter(|e| e.op.name() == "send")
            .map(|e| (e.rank, e.seq, e.peer))
            .collect();
        let named = trace
            .events
            .iter()
            .filter(|e| e.op.name() == "recv" && e.seq.is_some())
            .filter(|e| posted.contains(&(e.peer.unwrap_or(usize::MAX), e.seq, Some(e.rank))))
            .count();
        assert!(named > 0, "the merged rings hold joined messages");
        assert_eq!(
            trace.messages().len(),
            named,
            "a receive of a recorded send is unjoined"
        );
        let _ = std::fs::remove_dir_all(&dump);
    }
}
