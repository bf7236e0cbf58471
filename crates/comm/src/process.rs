//! One OS process per rank, with elastic membership.
//!
//! A [`ProcessWorld`] controller spawns `nranks` child processes (by
//! re-invoking the current executable with `GMG_PROC_*` environment
//! variables), hands them a socket transport ([`crate::socket`]), and
//! then *watches* them: every child runs a heartbeat thread, and the
//! controller runs a failure detector over heartbeats plus `waitpid`.
//! When a rank dies — a real `SIGKILL`, a crash, or a fault-injected
//! kill that escalated to a process exit — the controller:
//!
//! 1. respawns a replacement process for the dead rank (flagged
//!    `GMG_PROC_REJOIN=1`),
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
//! directory — `c.sock` (controller inbound), `m<r>.sock` (rank *r*'s
//! membership inbox), `h<r>.sock` (rank *r*'s heartbeat-ACK inbox) —
//! and is framed by the same [`crate::frame`] codec as the data plane
//! (kind [`FrameKind::Control`], opcode in `tag`). The data plane
//! (`d<r>.sock`) never carries control frames and vice versa.
//!
//! Each rejoin is reported as a [`RejoinEvent`] in the
//! [`ProcessReport`]: who died, the epoch and cycle the world resumed
//! at, the respawn latency and the whole epoch's duration.

use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmg_trace::probe;
use gmg_trace::ObsConfig;

use crate::fault::{FaultPlan, RetryPolicy};
use crate::frame::{Frame, FrameKind, MAX_FRAME_LEN};
use crate::runtime::RankCtx;
use crate::socket::{SocketKind, SocketTransport};
use crate::transport::Transport;

// Membership opcodes (carried in a control frame's `tag`).
const OP_HELLO: u64 = 1;
const OP_GO: u64 = 2;
const OP_BEAT: u64 = 3;
const OP_BEAT_ACK: u64 = 4;
const OP_PARK: u64 = 5;
const OP_PARKED: u64 = 6;
const OP_RESUME: u64 = 7;
const OP_READY: u64 = 8;
const OP_DONE: u64 = 9;

/// Upper bound on an encoded control frame: the header and a handful of
/// payload words.
const CTL_FRAME_MAX: usize = crate::frame::HEADER_LEN + 8 * 8;

const BEAT_INTERVAL: Duration = Duration::from_millis(20);
/// A gap longer than this declares the rank dead even if the process
/// still exists (hung, not crashed): it is killed and rejoined.
const HB_TIMEOUT: Duration = Duration::from_millis(2500);
const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);
const EPOCH_TIMEOUT: Duration = Duration::from_secs(60);
const HELLO_RESEND: Duration = Duration::from_millis(200);
const PARK_RESEND: Duration = Duration::from_millis(150);
/// How long a parked rank waits for `RESUME` before concluding the
/// controller itself is gone.
const PARK_WAIT_TIMEOUT: Duration = Duration::from_secs(120);

fn ctl_sock_path(dir: &Path) -> PathBuf {
    dir.join("c.sock")
}

fn member_sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("m{rank}.sock"))
}

fn beat_sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("h{rank}.sock"))
}

fn out_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("out_r{rank}.txt"))
}

/// Where rank-rejoin checkpoints live inside a world directory.
pub fn checkpoint_dir(dir: &Path) -> PathBuf {
    dir.join("ckpt")
}

/// Integers ride control payloads bit-cast, never converted.
fn bits(v: u64) -> f64 {
    f64::from_bits(v)
}

fn unbits(payload: &[f64], i: usize) -> u64 {
    payload.get(i).map(|v| v.to_bits()).unwrap_or(0)
}

fn ctl_frame(src: u32, op: u64, seq: u64, epoch: u64, payload: Vec<f64>) -> Vec<u8> {
    Frame {
        kind: FrameKind::Control,
        src,
        dst: 0,
        tag: op,
        seq,
        epoch,
        frag_index: 0,
        frag_count: 1,
        arq_checksum: 0,
        payload,
    }
    .encode()
}

fn recv_ctl(sock: &UnixDatagram, timeout: Duration) -> Option<Frame> {
    sock.set_read_timeout(Some(timeout.max(Duration::from_micros(100))))
        .ok()?;
    let mut buf = vec![0u8; MAX_FRAME_LEN];
    match sock.recv(&mut buf) {
        Ok(n) => Frame::decode(&buf[..n]).ok(),
        Err(_) => None,
    }
}

/// Checkpoint-cycle wire encoding: `0` means "no checkpoint", `c + 1`
/// means "checkpoint for completed cycle `c`". Keeps the happy path in
/// unsigned arithmetic while letting a freshly booted rank say "none".
fn enc_cycle(c: i64) -> u64 {
    (c + 1).max(0) as u64
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// The per-rank membership endpoint living inside a child process.
/// `RankCtx` polls it from `pump` (cheap nonblocking read) and calls
/// into it to park/rejoin; a background thread keeps heartbeats flowing
/// even while the rank is deep in compute.
pub(crate) struct MembershipClient {
    rank: usize,
    epoch: u64,
    m_sock: UnixDatagram,
    tx: UnixDatagram,
    ctl_path: PathBuf,
    ckpt_dir: PathBuf,
    rejoining: bool,
    parked: Option<u64>,
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
        self.rejoining
    }

    pub(crate) fn ckpt_dir(&self) -> &Path {
        &self.ckpt_dir
    }

    pub(crate) fn set_progress(&self, cycle: u64) {
        self.progress.store(cycle, Ordering::Relaxed);
    }

    /// Nonblocking membership poll: drains the inbox and returns the
    /// pending park epoch, if any. Sticky — keeps returning `Some`
    /// until the rank actually parks, so every comm call between the
    /// `PARK` arriving and the solver noticing fails fast.
    pub(crate) fn poll_park(&mut self) -> Option<u64> {
        // The inbox stays nonblocking between parks, and a control frame
        // is a header plus a word or two: no mode switch, no allocation.
        let mut buf = [0u8; CTL_FRAME_MAX];
        while let Ok(n) = self.m_sock.recv(&mut buf) {
            if let Ok(f) = Frame::decode(&buf[..n]) {
                if f.kind == FrameKind::Control && f.tag == OP_PARK && f.epoch > self.epoch {
                    self.parked = Some(f.epoch);
                }
            }
        }
        self.parked
    }

    /// Survivor path: report the latest locally checkpointed cycle and
    /// block until the controller's `RESUME`. Returns
    /// `(new_epoch, resume_enc)` where `resume_enc` uses [`enc_cycle`]
    /// encoding (`0` = restart from scratch, `c + 1` = re-run from the
    /// cycle-`c` checkpoint).
    pub(crate) fn park_and_await_resume(&mut self, ckpt_cycle: i64) -> (u64, u64) {
        self.report_and_await(OP_PARKED, ckpt_cycle)
    }

    /// Rejoined-replacement path: announce readiness with the newest
    /// checkpoint found on disk (`-1` for none) and await the `RESUME`.
    pub(crate) fn ready_and_await_resume(&mut self, ckpt_cycle: i64) -> (u64, u64) {
        self.report_and_await(OP_READY, ckpt_cycle)
    }

    fn report_and_await(&mut self, op: u64, ckpt_cycle: i64) -> (u64, u64) {
        let enc = enc_cycle(ckpt_cycle);
        // A parked ring is exactly what a membership postmortem wants to
        // see; the controller merges these per-process dumps.
        let _ = gmg_flight::dump_installed(
            if op == OP_PARKED {
                "membership-park"
            } else {
                "membership-rejoin"
            },
            &format!(
                "rank {} (epoch {}, checkpoint cycle {ckpt_cycle})",
                self.rank, self.epoch
            ),
        );
        self.m_sock.set_nonblocking(false).ok();
        let deadline = Instant::now() + PARK_WAIT_TIMEOUT;
        let mut last_report = None::<Instant>;
        let mut buf = vec![0u8; MAX_FRAME_LEN];
        loop {
            if last_report.map_or(true, |t| t.elapsed() >= PARK_RESEND) {
                let f = ctl_frame(self.rank as u32, op, 0, self.epoch, vec![bits(enc)]);
                let _ = self.tx.send_to(&f, &self.ctl_path);
                last_report = Some(Instant::now());
            }
            self.m_sock
                .set_read_timeout(Some(Duration::from_millis(50)))
                .ok();
            if let Ok(n) = self.m_sock.recv(&mut buf) {
                if let Ok(f) = Frame::decode(&buf[..n]) {
                    if f.kind != FrameKind::Control {
                        continue;
                    }
                    match f.tag {
                        // A fresh PARK (second death mid-collection, or a
                        // resend) just re-triggers our report.
                        OP_PARK if f.epoch > self.epoch => last_report = None,
                        OP_RESUME if f.epoch > self.epoch => {
                            self.epoch = f.epoch;
                            self.parked = None;
                            self.rejoining = false;
                            self.m_sock.set_nonblocking(true).ok();
                            return (f.epoch, f.seq);
                        }
                        _ => {}
                    }
                }
            }
            assert!(
                Instant::now() < deadline,
                "rank {} parked for membership epoch but the controller never resumed it",
                self.rank
            );
        }
    }
}

fn spawn_heartbeat(
    rank: usize,
    dir: &Path,
    progress: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let h_path = beat_sock_path(dir, rank);
    let _ = std::fs::remove_file(&h_path);
    let sock = UnixDatagram::bind(&h_path)?;
    sock.set_read_timeout(Some(BEAT_INTERVAL))?;
    let tx = UnixDatagram::unbound()?;
    let ctl = ctl_sock_path(dir);
    std::thread::Builder::new()
        .name(format!("gmg-heartbeat-{rank}"))
        .spawn(move || {
            let mut seq = 0u64;
            let mut buf = [0u8; 256];
            while !stop.load(Ordering::Relaxed) {
                let beat = ctl_frame(
                    rank as u32,
                    OP_BEAT,
                    seq,
                    0,
                    vec![bits(progress.load(Ordering::Relaxed))],
                );
                let _ = tx.send_to(&beat, &ctl);
                // Wait (at most one interval) for the controller's ACK.
                let _ = sock.recv(&mut buf);
                seq += 1;
                std::thread::sleep(BEAT_INTERVAL);
            }
        })?;
    Ok(())
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
    let Ok(rank) = std::env::var("GMG_PROC_RANK") else {
        return;
    };
    let rank: usize = rank.parse().expect("GMG_PROC_RANK");
    let nranks: usize = std::env::var("GMG_PROC_NRANKS")
        .expect("GMG_PROC_NRANKS")
        .parse()
        .expect("GMG_PROC_NRANKS");
    let dir = PathBuf::from(std::env::var("GMG_PROC_DIR").expect("GMG_PROC_DIR"));
    let entry = std::env::var("GMG_PROC_ENTRY").expect("GMG_PROC_ENTRY");
    let args = std::env::var("GMG_PROC_ARGS").unwrap_or_default();
    let rejoining = std::env::var("GMG_PROC_REJOIN").as_deref() == Ok("1");
    let plan = std::env::var("GMG_PROC_FAULTS")
        .ok()
        .and_then(|s| FaultPlan::from_env_string(&s));
    let code = child_main(rank, nranks, &dir, &entry, &args, rejoining, plan, dispatch);
    std::process::exit(code);
}

#[allow(clippy::too_many_arguments)]
fn child_main<F>(
    rank: usize,
    nranks: usize,
    dir: &Path,
    entry: &str,
    args: &str,
    rejoining: bool,
    plan: Option<FaultPlan>,
    dispatch: F,
) -> i32
where
    F: FnOnce(&str, RankCtx, &str) -> String,
{
    crate::runtime::keep_freed_memory();
    // A flight ring of our own; parks and panics dump it into the world
    // directory (the controller points `GMG_FLIGHT_DIR` there), where the
    // controller merges all surviving rings.
    let flight_world = gmg_flight::FlightWorld::for_run(nranks, &ObsConfig::from_env());
    let _probe = probe::install(Some(rank), flight_world.as_ref().map(|w| w.sink(rank)));

    let progress = Arc::new(AtomicU64::new(0));
    let stop_hb = Arc::new(AtomicBool::new(false));

    // Membership inbox first (a respawn rebinds its predecessor's path).
    let m_path = member_sock_path(dir, rank);
    let _ = std::fs::remove_file(&m_path);
    let m_sock = UnixDatagram::bind(&m_path).expect("bind membership socket");
    spawn_heartbeat(rank, dir, progress.clone(), stop_hb.clone()).expect("heartbeat thread");

    // Data endpoint *before* HELLO, so no data frame can race the bind.
    let mut transport = SocketTransport::uds(rank, nranks, dir).expect("bind data socket");

    let tx = UnixDatagram::unbound().expect("ctl send socket");
    let ctl_path = ctl_sock_path(dir);
    let epoch = hello_and_wait_go(&m_sock, &tx, &ctl_path, rank);
    transport.set_epoch(epoch);
    // From here on the inbox is only ever polled, until a park.
    m_sock
        .set_nonblocking(true)
        .expect("nonblocking membership socket");

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
    ctx.membership = Some(MembershipClient {
        rank,
        // A rejoined replacement is spawned *into* the new epoch (its GO
        // already carries it), but it must still accept that epoch's
        // RESUME — so its membership clock starts one behind.
        epoch: if rejoining {
            epoch.saturating_sub(1)
        } else {
            epoch
        },
        m_sock,
        tx: UnixDatagram::unbound().expect("membership send socket"),
        ctl_path: ctl_path.clone(),
        ckpt_dir: checkpoint_dir(dir),
        rejoining,
        parked: None,
        progress,
        stop_hb,
    });

    let entry_owned = entry.to_string();
    let args_owned = args.to_string();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        dispatch(&entry_owned, ctx, &args_owned)
    }));
    match out {
        Ok(result) => {
            // Result file is the authoritative "done" signal: written
            // and renamed *before* the process can exit 0.
            let path = out_path(dir, rank);
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &result).expect("write result");
            std::fs::rename(&tmp, &path).expect("publish result");
            let done = ctl_frame(rank as u32, OP_DONE, 0, 0, Vec::new());
            let _ = tx.send_to(&done, &ctl_path);
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

fn hello_and_wait_go(
    m_sock: &UnixDatagram,
    tx: &UnixDatagram,
    ctl_path: &Path,
    rank: usize,
) -> u64 {
    let deadline = Instant::now() + STARTUP_TIMEOUT;
    let mut last_hello = None::<Instant>;
    let mut buf = vec![0u8; MAX_FRAME_LEN];
    loop {
        if last_hello.map_or(true, |t| t.elapsed() >= HELLO_RESEND) {
            let hello = ctl_frame(rank as u32, OP_HELLO, 0, 0, Vec::new());
            let _ = tx.send_to(&hello, ctl_path);
            last_hello = Some(Instant::now());
        }
        m_sock
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        if let Ok(n) = m_sock.recv(&mut buf) {
            if let Ok(f) = Frame::decode(&buf[..n]) {
                if f.kind == FrameKind::Control && f.tag == OP_GO {
                    return f.epoch;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "rank {rank} never received GO from the membership controller"
        );
    }
}

// ---------------------------------------------------------------------
// Controller side
// ---------------------------------------------------------------------

/// One rejoin epoch, as observed by the controller.
#[derive(Clone, Debug)]
pub struct RejoinEvent {
    /// The rank that died and was replaced.
    pub rank: usize,
    /// The membership epoch the world resumed into.
    pub epoch: u64,
    /// The cycle whose checkpoint the world re-ran from (`-1` = full
    /// restart: the death predated every checkpoint).
    pub resume_cycle: i64,
    /// Death detection → replacement process spawned.
    pub respawn_latency: Duration,
    /// Death detection → `RESUME` broadcast (the whole epoch).
    pub epoch_duration: Duration,
}

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

struct RankState {
    child: Child,
    said_hello: bool,
    last_beat: Instant,
    progress: u64,
    exited: bool,
    done: bool,
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

    /// Spawn, supervise, rejoin as needed, and collect results.
    pub fn run(mut self) -> Result<ProcessReport, String> {
        static WORLD_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gmg-procworld-{}-{}",
            std::process::id(),
            WORLD_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(checkpoint_dir(&dir)).map_err(|e| e.to_string())?;
        let out = self.run_in(&dir);
        if out.is_ok() && std::env::var("GMG_KEEP_PROCDIR").as_deref() != Ok("1") {
            let _ = std::fs::remove_dir_all(&dir);
        } else if out.is_err() {
            eprintln!("gmg-comm process world kept its directory for debugging: {dir:?}");
        }
        out
    }

    fn run_in(&mut self, dir: &Path) -> Result<ProcessReport, String> {
        let ctl_path = ctl_sock_path(dir);
        let ctl = UnixDatagram::bind(&ctl_path).map_err(|e| format!("bind controller: {e}"))?;
        let tx = UnixDatagram::unbound().map_err(|e| e.to_string())?;

        let mut ranks: Vec<RankState> = (0..self.nranks)
            .map(|r| self.spawn_child(dir, r, false).map(new_rank_state))
            .collect::<Result<_, _>>()?;

        // Startup barrier: every rank HELLOs, then everyone gets GO.
        let startup_deadline = Instant::now() + STARTUP_TIMEOUT;
        while ranks.iter().any(|s| !s.said_hello) {
            if let Some(f) = recv_ctl(&ctl, Duration::from_millis(50)) {
                let src = f.src as usize;
                if src < self.nranks && f.kind == FrameKind::Control {
                    match f.tag {
                        OP_HELLO => {
                            ranks[src].said_hello = true;
                            ranks[src].last_beat = Instant::now();
                        }
                        OP_BEAT => self.handle_beat(&tx, dir, &mut ranks[src], &f),
                        _ => {}
                    }
                }
            }
            for (r, s) in ranks.iter_mut().enumerate() {
                if let Ok(Some(st)) = s.child.try_wait() {
                    return Err(format!("rank {r} died during startup ({st})"));
                }
            }
            if Instant::now() > startup_deadline {
                kill_all(&mut ranks);
                return Err("process world startup timed out waiting for HELLOs".into());
            }
        }
        for r in 0..self.nranks {
            let go = ctl_frame(u32::MAX, OP_GO, 0, 0, Vec::new());
            let _ = tx.send_to(&go, member_sock_path(dir, r));
        }

        // Steady state: supervise until every rank published a result.
        let hard_deadline = Instant::now() + self.deadline;
        let mut epoch = 0u64;
        let mut rejoins: Vec<RejoinEvent> = Vec::new();
        let mut kill_armed = self.kill_at;
        loop {
            if let Some(f) = recv_ctl(&ctl, Duration::from_millis(10)) {
                let src = f.src as usize;
                if src < self.nranks && f.kind == FrameKind::Control {
                    match f.tag {
                        OP_BEAT => self.handle_beat(&tx, dir, &mut ranks[src], &f),
                        OP_DONE => ranks[src].done = true,
                        // A GO lost to a race: the child keeps HELLOing.
                        OP_HELLO => {
                            let go = ctl_frame(u32::MAX, OP_GO, 0, epoch, Vec::new());
                            let _ = tx.send_to(&go, member_sock_path(dir, src));
                        }
                        _ => {}
                    }
                }
            }

            // Chaos trigger: a real SIGKILL, driven by reported progress.
            if let Some((kr, kc)) = kill_armed {
                if !ranks[kr].exited && ranks[kr].progress >= kc {
                    let _ = ranks[kr].child.kill();
                    let _ = ranks[kr].child.wait();
                    kill_armed = None;
                }
            }

            // Failure detection: waitpid first (authoritative), then
            // heartbeat timeout (hung-but-alive ranks get killed).
            let mut dead: Option<(usize, String)> = None;
            for (r, s) in ranks.iter_mut().enumerate() {
                if s.exited {
                    continue;
                }
                if let Ok(Some(st)) = s.child.try_wait() {
                    s.exited = true;
                    if st.success() && out_path(dir, r).exists() {
                        s.done = true;
                    } else {
                        dead = Some((r, format!("exited: {st}")));
                    }
                    continue;
                }
                let gap = s.last_beat.elapsed();
                if gap > HB_TIMEOUT {
                    let _ = s.child.kill();
                    let _ = s.child.wait();
                    s.exited = true;
                    dead = Some((r, format!("heartbeat silent for {gap:?}")));
                }
            }

            if let Some((r, why)) = dead {
                if ranks.iter().any(|s| s.done) {
                    kill_all(&mut ranks);
                    return Err(format!(
                        "rank {r} died ({why}) after another rank already finished; \
                         cannot rejoin a world that is partially complete"
                    ));
                }
                if rejoins.len() as u32 >= self.max_rejoins {
                    kill_all(&mut ranks);
                    return Err(format!(
                        "rank {r} died ({why}) but the rejoin budget ({}) is exhausted",
                        self.max_rejoins
                    ));
                }
                epoch += 1;
                let ev = self.rejoin_epoch(dir, &ctl, &tx, &mut ranks, r, &why, epoch)?;
                rejoins.push(ev);
            }

            if ranks.iter().all(|s| s.done) {
                break;
            }
            if Instant::now() > hard_deadline {
                kill_all(&mut ranks);
                return Err(format!(
                    "process world exceeded its deadline ({:?}); progress: {:?}",
                    self.deadline,
                    ranks.iter().map(|s| s.progress).collect::<Vec<_>>()
                ));
            }
        }

        for s in &mut ranks {
            let _ = s.child.wait();
        }
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

    fn handle_beat(&self, tx: &UnixDatagram, dir: &Path, s: &mut RankState, f: &Frame) {
        s.last_beat = Instant::now();
        s.progress = unbits(&f.payload, 0);
        let ack = ctl_frame(u32::MAX, OP_BEAT_ACK, f.seq, 0, Vec::new());
        let _ = tx.send_to(&ack, beat_sock_path(dir, f.src as usize));
    }

    /// One membership epoch: respawn the dead rank, park the survivors,
    /// agree on a resume cycle, release everyone into the new epoch.
    #[allow(clippy::too_many_arguments)]
    fn rejoin_epoch(
        &self,
        dir: &Path,
        ctl: &UnixDatagram,
        tx: &UnixDatagram,
        ranks: &mut [RankState],
        dead: usize,
        why: &str,
        epoch: u64,
    ) -> Result<RejoinEvent, String> {
        let t0 = Instant::now();

        let spawn_t = Instant::now();
        ranks[dead] = new_rank_state(self.spawn_child(dir, dead, true)?);
        let respawn_latency = spawn_t.elapsed();

        let deadline = Instant::now() + EPOCH_TIMEOUT;
        let mut parked: Vec<Option<u64>> = vec![None; self.nranks];
        let mut ready_enc: Option<u64> = None;
        let mut last_park = Instant::now()
            .checked_sub(PARK_RESEND)
            .unwrap_or_else(Instant::now);
        loop {
            if last_park.elapsed() >= PARK_RESEND {
                for (r, p) in parked.iter().enumerate() {
                    if r != dead && p.is_none() {
                        let park = ctl_frame(u32::MAX, OP_PARK, 0, epoch, Vec::new());
                        let _ = tx.send_to(&park, member_sock_path(dir, r));
                    }
                }
                last_park = Instant::now();
            }
            if let Some(f) = recv_ctl(ctl, Duration::from_millis(20)) {
                let src = f.src as usize;
                if src < self.nranks && f.kind == FrameKind::Control {
                    match f.tag {
                        OP_BEAT => self.handle_beat(tx, dir, &mut ranks[src], &f),
                        OP_HELLO if src == dead => {
                            ranks[src].said_hello = true;
                            ranks[src].last_beat = Instant::now();
                            let go = ctl_frame(u32::MAX, OP_GO, 0, epoch, Vec::new());
                            let _ = tx.send_to(&go, member_sock_path(dir, src));
                        }
                        OP_PARKED if src != dead => parked[src] = Some(unbits(&f.payload, 0)),
                        OP_READY if src == dead => ready_enc = Some(unbits(&f.payload, 0)),
                        OP_DONE => {
                            return Err(format!(
                                "rank {src} finished mid-membership-epoch; \
                                 the dead rank {dead} cannot be rejoined"
                            ))
                        }
                        _ => {}
                    }
                }
            }
            for (r, s) in ranks.iter_mut().enumerate() {
                if !s.exited {
                    if let Ok(Some(st)) = s.child.try_wait() {
                        s.exited = true;
                        return Err(format!(
                            "rank {r} died ({st}) during the membership epoch for rank {dead}"
                        ));
                    }
                }
            }
            let all_parked = parked
                .iter()
                .enumerate()
                .all(|(r, p)| r == dead || p.is_some());
            if all_parked && ready_enc.is_some() {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "membership epoch {epoch} for rank {dead} ({why}) timed out; \
                     parked={parked:?} ready={ready_enc:?}"
                ));
            }
        }

        // Every rank keeps all its checkpoint files, so the minimum
        // reported cycle is loadable everywhere; `0` forces a restart.
        let resume_enc = parked
            .iter()
            .flatten()
            .copied()
            .chain(ready_enc)
            .min()
            .unwrap_or(0);
        for r in 0..self.nranks {
            // Twice, unconditionally: receivers dedupe on epoch.
            for _ in 0..2 {
                let resume = ctl_frame(u32::MAX, OP_RESUME, resume_enc, epoch, Vec::new());
                let _ = tx.send_to(&resume, member_sock_path(dir, r));
            }
        }
        let epoch_duration = t0.elapsed();
        Ok(RejoinEvent {
            rank: dead,
            epoch,
            resume_cycle: resume_enc as i64 - 1,
            respawn_latency,
            epoch_duration,
        })
    }

    fn spawn_child(&self, dir: &Path, rank: usize, rejoin: bool) -> Result<Child, String> {
        let mut cmd = Command::new(&self.child_exe);
        cmd.args(&self.child_args)
            .env("GMG_PROC_RANK", rank.to_string())
            .env("GMG_PROC_NRANKS", self.nranks.to_string())
            .env("GMG_PROC_DIR", dir)
            .env("GMG_PROC_ENTRY", &self.entry)
            .env("GMG_PROC_ARGS", &self.args)
            // Children dump flight rings into the world dir, where the
            // controller finds and merges them.
            .env("GMG_FLIGHT_DIR", dir)
            .stdin(Stdio::null());
        if rejoin {
            cmd.env("GMG_PROC_REJOIN", "1");
        } else {
            cmd.env_remove("GMG_PROC_REJOIN");
        }
        if let Some(p) = &self.plan {
            cmd.env("GMG_PROC_FAULTS", p.to_env_string());
        }
        let log =
            std::fs::File::create(dir.join(format!("r{rank}.log"))).map_err(|e| e.to_string())?;
        cmd.stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log);
        cmd.spawn().map_err(|e| format!("spawn rank {rank}: {e}"))
    }
}

fn new_rank_state(child: Child) -> RankState {
    RankState {
        child,
        said_hello: false,
        last_beat: Instant::now(),
        progress: 0,
        exited: false,
        done: false,
    }
}

fn kill_all(ranks: &mut [RankState]) {
    for s in ranks {
        if !s.exited {
            let _ = s.child.kill();
            let _ = s.child.wait();
            s.exited = true;
        }
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
        assert!(ev.respawn_latency > Duration::ZERO);
        assert!(ev.epoch_duration >= ev.respawn_latency);

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
        let _ = std::fs::remove_dir_all(&dump);
    }
}
