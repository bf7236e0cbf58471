//! The membership protocol as two state machines that do no IO.
//!
//! [`Controller`] and [`Member`] turn `(now, input)` into outputs pushed
//! onto a buffer the caller owns, in the shape of
//! [`crate::reliable::Reliable`]: HELLO → GO at start, BEAT while alive,
//! and after a death PARK → PARKED / READY → RESUME, epoch by epoch (see
//! [`crate::process`] for what that achieves). They read no clock and touch
//! no socket, process or thread: `now` is the caller's time base — the
//! shell's monotonic clock, or a test's virtual one — and every timeout and
//! resend interval is a constant here. [`crate::process`] is the shell.

use std::time::Duration;

use crate::frame::{Frame, FrameKind};

// Membership opcodes (carried in a control frame's `tag`).
const OP_HELLO: u64 = 1;
const OP_GO: u64 = 2;
pub(crate) const OP_BEAT: u64 = 3;
const OP_PARK: u64 = 5;
const OP_PARKED: u64 = 6;
const OP_RESUME: u64 = 7;
const OP_READY: u64 = 8;
pub(crate) const OP_DONE: u64 = 9;

/// A beat's period (the shell's heartbeat thread sleeps this long).
pub(crate) const BEAT_INTERVAL: Duration = Duration::from_millis(20);
/// A gap longer than this declares the rank dead even if the process
/// still exists (hung, not crashed): it is killed and rejoined.
const HB_TIMEOUT: Duration = Duration::from_millis(2500);
const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);
const EPOCH_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a member waits for `GO`: past both the startup barrier and a
/// rejoin epoch, so the controller, which knows who stayed silent, always
/// decides a failed start, and a member's own wait fires only when the
/// controller is gone.
const GO_TIMEOUT: Duration = STARTUP_TIMEOUT.saturating_add(EPOCH_TIMEOUT);
const HELLO_RESEND: Duration = Duration::from_millis(200);
const PARK_RESEND: Duration = Duration::from_millis(150);
/// How long a parked rank waits for `RESUME` before concluding the
/// controller itself is gone.
const PARK_WAIT_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a waiting member blocks on its inbox between turns.
pub(crate) const MEMBER_POLL: Duration = Duration::from_millis(50);

/// A control frame from `src` (`u32::MAX`: the controller). An integer
/// rides the payload bit-cast, never converted.
pub(crate) fn ctl_frame(src: u32, op: u64, seq: u64, epoch: u64, word: Option<u64>) -> Frame {
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
        payload: word.map(f64::from_bits).into_iter().collect(),
    }
}

/// A control frame from the controller to rank `to`.
fn to(to: usize, op: u64, seq: u64, epoch: u64) -> ControllerOut {
    ControllerOut::Send(to, ctl_frame(u32::MAX, op, seq, epoch, None))
}

fn word(f: &Frame) -> u64 {
    f.payload.first().map_or(0, |v| v.to_bits())
}

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
}

// ---------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------

/// What the controller's shell feeds it.
pub(crate) enum ControllerIn {
    /// A control frame from a rank.
    Frame(Frame),
    /// `waitpid` found `rank`'s process gone: `clean` when it exited 0
    /// with its result published.
    Exit {
        rank: usize,
        clean: bool,
        status: String,
    },
    /// The end of a turn, after its frame and its exits: the phase's
    /// progress checks and timers.
    Tick,
}

/// What the controller asks of its shell.
pub(crate) enum ControllerOut {
    /// Put this frame in a rank's inbox.
    Send(usize, Frame),
    /// Start a replacement process for this rank, flagged as rejoining.
    Spawn(usize),
    /// `SIGKILL` this rank's process and reap it.
    Kill(usize),
    /// Every rank published its result.
    Finish,
}

struct RankState {
    /// The epoch this rank's process was spawned into.
    born: u64,
    said_hello: bool,
    last_beat: Duration,
    progress: u64,
    exited: bool,
    done: bool,
}

impl RankState {
    fn new(now: Duration, born: u64) -> RankState {
        RankState {
            born,
            said_hello: false,
            last_beat: now,
            progress: 0,
            exited: false,
            done: false,
        }
    }
}

enum Phase {
    /// Every rank HELLOs, then everyone gets GO.
    Startup,
    /// Supervise until every rank published a result.
    Running,
    Rejoin(Rejoin),
}

/// Rank `dead` is being replaced: park the survivors, agree on a resume
/// cycle, release everyone into the new epoch.
struct Rejoin {
    dead: usize,
    why: String,
    parked: Vec<Option<u64>>,
    ready: Option<u64>,
    last_park: Option<Duration>,
    deadline: Duration,
}

/// The controller side of membership.
pub(crate) struct Controller {
    nranks: usize,
    max_rejoins: u32,
    world_timeout: Duration,
    /// Chaos trigger: kill this rank once its progress reaches this cycle.
    kill_at: Option<(usize, u64)>,
    epoch: u64,
    ranks: Vec<RankState>,
    phase: Phase,
    /// The startup barrier's deadline, then the world's.
    deadline: Duration,
    /// Every rejoin epoch so far, in order.
    pub(crate) rejoins: Vec<RejoinEvent>,
}

impl Controller {
    /// A world of `nranks` just spawned at `now`, that may rejoin
    /// `max_rejoins` deaths and must finish within `world_timeout` of GO.
    pub(crate) fn new(
        now: Duration,
        nranks: usize,
        max_rejoins: u32,
        world_timeout: Duration,
        kill_at: Option<(usize, u64)>,
    ) -> Controller {
        Controller {
            nranks,
            max_rejoins,
            world_timeout,
            kill_at,
            epoch: 0,
            ranks: (0..nranks).map(|_| RankState::new(now, 0)).collect(),
            phase: Phase::Startup,
            deadline: now + STARTUP_TIMEOUT,
            rejoins: Vec::new(),
        }
    }

    /// How long the shell may block on its inbox before the next turn.
    pub(crate) fn poll_interval(&self) -> Duration {
        Duration::from_millis(match self.phase {
            Phase::Startup => 50,
            Phase::Running => 10,
            Phase::Rejoin(_) => 20,
        })
    }

    /// Take one input at `now`; an `Err` ends the world with that
    /// message.
    pub(crate) fn handle(
        &mut self,
        now: Duration,
        input: ControllerIn,
        out: &mut Vec<ControllerOut>,
    ) -> Result<(), String> {
        match input {
            ControllerIn::Frame(f) if (f.src as usize) < self.nranks => self.on_frame(now, f, out),
            ControllerIn::Exit {
                rank,
                clean,
                status,
            } if !self.ranks[rank].exited => {
                self.ranks[rank].exited = true;
                match &self.phase {
                    Phase::Startup => Err(format!("rank {rank} died during startup ({status})")),
                    Phase::Rejoin(e) => Err(format!(
                        "rank {rank} died ({status}) during the membership epoch for rank {}",
                        e.dead
                    )),
                    Phase::Running if clean => {
                        self.ranks[rank].done = true;
                        Ok(())
                    }
                    Phase::Running => self.on_death(now, rank, format!("exited: {status}"), out),
                }
            }
            ControllerIn::Tick => self.advance(now, out),
            _ => Ok(()),
        }
    }

    fn on_frame(
        &mut self,
        now: Duration,
        f: Frame,
        out: &mut Vec<ControllerOut>,
    ) -> Result<(), String> {
        let (r, epoch) = (f.src as usize, self.epoch);
        let s = &mut self.ranks[r];
        match (f.tag, &mut self.phase) {
            (OP_BEAT, _) => {
                s.last_beat = now;
                s.progress = word(&f);
            }
            // A rank HELLOs until its GO arrives, so after the startup
            // barrier every HELLO gets one (a GO lost to a race), naming
            // the epoch the rank's process was spawned into.
            (OP_HELLO, phase) => {
                s.said_hello = true;
                s.last_beat = now;
                if !matches!(phase, Phase::Startup) {
                    out.push(to(r, OP_GO, 0, s.born));
                }
            }
            (OP_DONE, Phase::Running) => s.done = true,
            (OP_DONE, Phase::Rejoin(e)) => {
                return Err(format!(
                    "rank {r} finished mid-membership-epoch; \
                     the dead rank {} cannot be rejoined",
                    e.dead
                ))
            }
            // A report counts for the epoch it names, and for no other.
            (OP_PARKED | OP_READY, Phase::Rejoin(e)) if f.epoch == epoch => {
                let slot = if r == e.dead {
                    &mut e.ready
                } else {
                    &mut e.parked[r]
                };
                *slot = Some(word(&f));
            }
            // A report of the epoch already resumed: its RESUME was lost.
            (OP_PARKED | OP_READY, Phase::Running) if f.epoch == epoch => {
                if let Some(ev) = self.rejoins.last() {
                    out.push(to(r, OP_RESUME, (ev.resume_cycle + 1) as u64, epoch));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Rank `r` died while the world ran: start a rejoin epoch, unless the
    /// world is already partly finished or out of rejoins.
    fn on_death(
        &mut self,
        now: Duration,
        r: usize,
        why: String,
        out: &mut Vec<ControllerOut>,
    ) -> Result<(), String> {
        if self.ranks.iter().any(|s| s.done) {
            return Err(format!(
                "rank {r} died ({why}) after another rank already finished; \
                 cannot rejoin a world that is partially complete"
            ));
        }
        if self.rejoins.len() as u32 >= self.max_rejoins {
            return Err(format!(
                "rank {r} died ({why}) but the rejoin budget ({}) is exhausted",
                self.max_rejoins
            ));
        }
        self.epoch += 1;
        self.ranks[r] = RankState::new(now, self.epoch);
        out.push(ControllerOut::Spawn(r));
        self.phase = Phase::Rejoin(Rejoin {
            dead: r,
            why,
            parked: vec![None; self.nranks],
            ready: None,
            last_park: None,
            deadline: now + EPOCH_TIMEOUT,
        });
        Ok(())
    }

    /// The phase's progress checks and timers.
    fn advance(&mut self, now: Duration, out: &mut Vec<ControllerOut>) -> Result<(), String> {
        let (n, epoch) = (self.nranks, self.epoch);
        match &mut self.phase {
            Phase::Startup => {
                let silent: Vec<usize> = (0..n).filter(|&r| !self.ranks[r].said_hello).collect();
                if silent.is_empty() {
                    out.extend((0..n).map(|r| to(r, OP_GO, 0, 0)));
                    self.phase = Phase::Running;
                    self.deadline = now + self.world_timeout;
                } else if now > self.deadline {
                    return Err(format!(
                        "process world startup timed out waiting for HELLOs from ranks {silent:?}"
                    ));
                }
            }
            Phase::Running => {
                // Chaos trigger: a real SIGKILL, driven by reported progress.
                if let Some((r, cycle)) = self.kill_at {
                    if !self.ranks[r].exited && self.ranks[r].progress >= cycle {
                        out.push(ControllerOut::Kill(r));
                        self.kill_at = None;
                    }
                }
                // A hung-but-alive rank gets killed; `waitpid` reports the
                // ones that died by themselves.
                for r in 0..n {
                    let gap = now.saturating_sub(self.ranks[r].last_beat);
                    if !self.ranks[r].exited && gap > HB_TIMEOUT {
                        out.push(ControllerOut::Kill(r));
                        self.ranks[r].exited = true;
                        return self.on_death(now, r, format!("heartbeat silent for {gap:?}"), out);
                    }
                }
                if self.ranks.iter().all(|s| s.done) {
                    out.push(ControllerOut::Finish);
                } else if now > self.deadline {
                    return Err(format!(
                        "process world exceeded its deadline ({:?}); progress: {:?}",
                        self.world_timeout,
                        self.ranks.iter().map(|s| s.progress).collect::<Vec<_>>()
                    ));
                }
            }
            Phase::Rejoin(e) => {
                if e.ready.is_some() && (0..n).all(|r| r == e.dead || e.parked[r].is_some()) {
                    // Every rank keeps all its checkpoint files, so the
                    // minimum reported cycle is loadable everywhere; `0`
                    // forces a restart.
                    let reports = e.parked.iter().chain([&e.ready]).flatten();
                    let resume = reports.min().copied().unwrap_or(0);
                    let (rank, resume_cycle) = (e.dead, resume as i64 - 1);
                    self.rejoins.push(RejoinEvent {
                        rank,
                        epoch,
                        resume_cycle,
                    });
                    // Twice, unconditionally: receivers dedupe on epoch.
                    out.extend(
                        (0..n)
                            .flat_map(|r| [r, r])
                            .map(|r| to(r, OP_RESUME, resume, epoch)),
                    );
                    self.phase = Phase::Running;
                    return Ok(());
                }
                if e.last_park
                    .is_none_or(|t| now.saturating_sub(t) >= PARK_RESEND)
                {
                    let unparked = (0..n).filter(|&r| r != e.dead && e.parked[r].is_none());
                    out.extend(unparked.map(|r| to(r, OP_PARK, 0, epoch)));
                    e.last_park = Some(now);
                }
                if now > e.deadline {
                    return Err(format!(
                        "membership epoch {epoch} for rank {} ({}) timed out; parked={:?} ready={:?}",
                        e.dead, e.why, e.parked, e.ready
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Member
// ---------------------------------------------------------------------

/// What a member's shell feeds it.
pub(crate) enum MemberIn {
    /// A control frame from the controller.
    Frame(Frame),
    /// The rank stopped at the membership barrier with this checkpoint
    /// (`-1` for none): `ready` for a rejoined replacement, else a
    /// parked survivor.
    Report { ready: bool, ckpt: i64 },
    /// The receive timed out.
    Tick,
}

/// What a member asks of its shell.
pub(crate) enum MemberOut {
    /// Send this frame to the controller.
    Send(Frame),
    /// The world started in this epoch.
    Go(u64),
    /// The world resumes in `epoch` from `resume`: `0` from scratch,
    /// `c + 1` from the cycle-`c` checkpoint.
    Resume { epoch: u64, resume: u64 },
}

#[derive(Clone, Copy)]
enum Wait {
    /// HELLO until GO.
    Hello,
    Running,
    /// Report checkpoint `ckpt` (`c + 1`, or `0` for none) under `op`
    /// until RESUME(`epoch`).
    Report {
        op: u64,
        epoch: u64,
        ckpt: u64,
    },
}

/// The member side of membership, one per rank process.
pub(crate) struct Member {
    rank: usize,
    epoch: u64,
    rejoining: bool,
    /// A PARK's epoch, kept until the rank parks.
    parked: Option<u64>,
    wait: Wait,
    /// When the wait's frame last went out.
    sent: Option<Duration>,
    deadline: Duration,
}

impl Member {
    /// Rank `rank`'s process, started at `now`; `rejoining` when it
    /// replaces a dead one.
    pub(crate) fn new(now: Duration, rank: usize, rejoining: bool) -> Member {
        Member {
            rank,
            epoch: 0,
            rejoining,
            parked: None,
            wait: Wait::Hello,
            sent: None,
            deadline: now + GO_TIMEOUT,
        }
    }

    pub(crate) fn rejoining(&self) -> bool {
        self.rejoining
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pending park epoch, if any. Sticky — it stays until the rank
    /// actually parks, so every comm call between the `PARK` arriving and
    /// the solver noticing fails fast.
    pub(crate) fn parked(&self) -> Option<u64> {
        self.parked
    }

    /// Take one input at `now`, then run the wait's resend and deadline;
    /// an `Err` means the controller is gone. A running member sets no
    /// timer, so its inputs need no fresh `now`.
    pub(crate) fn handle(
        &mut self,
        now: Duration,
        input: MemberIn,
        out: &mut Vec<MemberOut>,
    ) -> Result<(), String> {
        match input {
            MemberIn::Frame(f) => match (&mut self.wait, f.tag) {
                (Wait::Hello, OP_GO) => {
                    // A rejoined replacement is spawned *into* the new
                    // epoch (its GO carries it), but it must still accept
                    // that epoch's RESUME — so its epoch starts one behind.
                    self.epoch = f.epoch.saturating_sub(u64::from(self.rejoining));
                    self.wait = Wait::Running;
                    out.push(MemberOut::Go(f.epoch));
                }
                (Wait::Running, OP_PARK) if f.epoch > self.epoch => {
                    self.parked = self.parked.max(Some(f.epoch))
                }
                // A PARK resent (our report was lost) or a newer one (a
                // second death mid-collection): report for it at once.
                (Wait::Report { epoch, .. }, OP_PARK) if f.epoch >= *epoch => {
                    *epoch = f.epoch;
                    self.sent = None;
                }
                // Only the epoch reported for resumes: an older RESUME is
                // stale.
                (Wait::Report { epoch, .. }, OP_RESUME) if f.epoch == *epoch => {
                    self.epoch = f.epoch;
                    self.parked = None;
                    self.rejoining = false;
                    self.wait = Wait::Running;
                    out.push(MemberOut::Resume {
                        epoch: f.epoch,
                        resume: f.seq,
                    });
                }
                _ => {}
            },
            // A report names the epoch it waits for: the PARK's, or the
            // next one.
            MemberIn::Report { ready, ckpt } => {
                let op = if ready { OP_READY } else { OP_PARKED };
                let epoch = self.parked.unwrap_or(self.epoch + 1);
                self.wait = Wait::Report {
                    op,
                    epoch,
                    ckpt: (ckpt + 1).max(0) as u64,
                };
                self.sent = None;
                self.deadline = now + PARK_WAIT_TIMEOUT;
            }
            MemberIn::Tick => {}
        }
        let ((op, epoch, word), every, fails) = match self.wait {
            Wait::Running => return Ok(()),
            Wait::Hello => (
                (OP_HELLO, 0, None),
                HELLO_RESEND,
                "never received GO from the membership controller",
            ),
            Wait::Report { op, epoch, ckpt } => (
                (op, epoch, Some(ckpt)),
                PARK_RESEND,
                "parked for membership epoch but the controller never resumed it",
            ),
        };
        if self.sent.is_none_or(|t| now.saturating_sub(t) >= every) {
            let frame = ctl_frame(self.rank as u32, op, 0, epoch, word);
            out.push(MemberOut::Send(frame));
            self.sent = Some(now);
        }
        if now >= self.deadline {
            return Err(format!("rank {} {fails}", self.rank));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The real cores — one controller, 2–8 members — driven by a seeded
    //! medium on a virtual clock: no sockets, processes, threads or sleeps,
    //! and every schedule replays from its seed. The medium plays both
    //! shells: the controller's loop (a turn per frame or poll timeout,
    //! `waitpid` after each), every rank's wait loop and heartbeat, and a
    //! solver that runs its cycles in lock step with its peers,
    //! checkpoints each one and parks when asked.

    use super::*;
    use crate::fault::{mix, FaultRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const MS: Duration = Duration::from_millis(1);
    const US: Duration = Duration::from_micros(1);
    const EXIT_OK: &str = "exit status: 0";
    const SIGKILL: &str = "signal: 9 (SIGKILL)";
    const PANICKED: &str = "exit status: 101";
    /// How long a process world in the sweep may run after GO.
    const WORLD_TIMEOUT: Duration = Duration::from_secs(8);
    /// A death is rejoined within this much virtual time (a stopped
    /// process is only seen as dead after [`HB_TIMEOUT`]).
    const REJOIN_BOUND: Duration = Duration::from_secs(3);

    enum Ev {
        /// The controller's receive timed out.
        CtlTurn,
        /// A frame reaches the controller.
        ToCtl(Frame),
        /// A frame reaches process `inc` of rank `to`.
        ToMember {
            to: usize,
            inc: u32,
            frame: Frame,
        },
        /// Process `inc` of `rank` is up: it starts beating and HELLOs.
        Boot {
            rank: usize,
            inc: u32,
        },
        /// A waiting member's receive timed out.
        MemberTurn {
            rank: usize,
            inc: u32,
        },
        Beat {
            rank: usize,
            inc: u32,
        },
        /// The solver's next step.
        Work {
            rank: usize,
            inc: u32,
        },
        Fault(Fault),
    }

    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// `SIGKILL` the rank's process.
        Kill(usize),
        /// Stop everything, heartbeat included (a stopped process).
        Freeze(usize),
        /// Stop computing and polling, but keep beating.
        Hang(usize),
    }

    /// Arms a kill when the controller first does something: `Park` or
    /// `Resume` kill the given rank, `Spawn` the replacement.
    #[derive(Clone, Copy, Debug)]
    enum Trigger {
        Park(usize),
        Spawn,
        Resume(usize),
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum State {
        /// Spawned, its socket not yet bound.
        Booting,
        /// In a membership wait: HELLO or a report.
        Waiting,
        Working,
        /// Waiting for a peer's data.
        Blocked,
        Hung,
        Frozen,
        Gone(&'static str),
    }

    struct Proc {
        inc: u32,
        /// The controller's epoch when this process was spawned.
        born: u64,
        core: Member,
        state: State,
        /// The cycle being computed.
        cycle: u64,
        /// The newest checkpoint this process may report.
        saved: i64,
        /// The checkpoint of its latest report, encoded.
        reported: u64,
        /// The newest PARK epoch delivered to it.
        park_seen: u64,
        /// Between its report and the RESUME (a stopped process stays).
        reporting: bool,
        turn_pending: bool,
    }

    impl Proc {
        fn new(inc: u32, born: u64, rank: usize, now: Duration) -> Proc {
            Proc {
                inc,
                born,
                core: Member::new(now, rank, inc > 0),
                state: State::Booting,
                cycle: 0,
                saved: -1,
                reported: 0,
                park_seen: 0,
                reporting: false,
                turn_pending: false,
            }
        }
    }

    struct Sim {
        seed: u64,
        now: Duration,
        rng: FaultRng,
        queue: BinaryHeap<Reverse<(Duration, usize)>>,
        evs: Vec<Option<Ev>>,
        ctl: Controller,
        ctl_out: Vec<ControllerOut>,
        procs: Vec<Proc>,
        /// Per rank, one bit per checkpointed cycle: files outlive
        /// processes.
        disk: Vec<u64>,
        total: u64,
        cycle_time: Vec<Duration>,
        spawn_time: Duration,
        loss: f64,
        dup: f64,
        delay: f64,
        max_delay: Duration,
        trigger: Option<(Trigger, Duration)>,
        /// Per rank, when its latest fault fired.
        faulted: Vec<Duration>,
        /// A process was hung or stopped.
        stalled: bool,
        /// Per rank, the epochs its processes parked for, in order.
        parks: Vec<Vec<u64>>,
        outcome: Option<Result<(), String>>,
    }

    impl Sim {
        fn at(&mut self, t: Duration, ev: Ev) {
            self.queue.push(Reverse((t, self.evs.len())));
            self.evs.push(Some(ev));
        }

        /// When the copies of one frame arrive: lost, once or twice, each
        /// maybe delayed (and so reordered).
        fn fates(&mut self) -> Vec<Duration> {
            let copies = if self.rng.chance(self.loss) {
                0
            } else if self.rng.chance(self.dup) {
                2
            } else {
                1
            };
            (0..copies)
                .map(|_| {
                    let mut t = self.now + 5 * US + US * self.rng.below(50) as u32;
                    if self.rng.chance(self.delay) {
                        t += US * self.rng.below(self.max_delay.as_micros() as u64) as u32;
                    }
                    t
                })
                .collect()
        }

        fn send_ctl(&mut self, frame: Frame) {
            for t in self.fates() {
                self.at(t, Ev::ToCtl(frame.clone()));
            }
        }

        /// A frame to whichever process holds rank `to`'s inbox now; none
        /// while it is between processes.
        fn send_member(&mut self, to: usize, frame: Frame) {
            let p = &self.procs[to];
            if matches!(p.state, State::Booting | State::Gone(_)) {
                return;
            }
            let inc = p.inc;
            for t in self.fates() {
                let frame = frame.clone();
                self.at(t, Ev::ToMember { to, inc, frame });
            }
        }

        fn arm(&mut self, fired: impl Fn(Trigger) -> Option<usize>) {
            if let Some((trigger, delay)) = self.trigger {
                if let Some(rank) = fired(trigger) {
                    self.trigger = None;
                    self.at(self.now + delay, Ev::Fault(Fault::Kill(rank)));
                }
            }
        }

        /// The controller's inputs of one turn: its frame, if one came,
        /// then `waitpid` on every rank, then the tick.
        fn ctl_inputs(&mut self, frame: Option<Frame>) -> Result<(), String> {
            let (now, out) = (self.now, &mut self.ctl_out);
            if let Some(f) = frame {
                self.ctl.handle(now, ControllerIn::Frame(f), out)?;
            }
            for (rank, p) in self.procs.iter().enumerate() {
                if let State::Gone(status) = p.state {
                    let (clean, status) = (status == EXIT_OK, status.to_string());
                    let exit = ControllerIn::Exit {
                        rank,
                        clean,
                        status,
                    };
                    self.ctl.handle(now, exit, out)?;
                }
            }
            self.ctl.handle(now, ControllerIn::Tick, out)
        }

        /// One controller turn, and what it asks for.
        fn ctl_turn(&mut self, frame: Option<Frame>) {
            if self.outcome.is_some() {
                return;
            }
            let rejoins = self.ctl.rejoins.len();
            if let Err(e) = self.ctl_inputs(frame) {
                self.outcome = Some(Err(e));
                return;
            }
            for o in std::mem::take(&mut self.ctl_out) {
                match o {
                    ControllerOut::Send(to, f) => {
                        match f.tag {
                            OP_PARK => self.arm(|t| match t {
                                Trigger::Park(r) => Some(r),
                                _ => None,
                            }),
                            OP_RESUME => self.arm(|t| match t {
                                Trigger::Resume(r) => Some(r),
                                _ => None,
                            }),
                            _ => {}
                        }
                        self.send_member(to, f);
                    }
                    ControllerOut::Spawn(r) => {
                        let inc = self.procs[r].inc + 1;
                        self.procs[r] = Proc::new(inc, self.ctl.epoch, r, self.now);
                        self.at(self.now + self.spawn_time, Ev::Boot { rank: r, inc });
                        self.arm(|t| matches!(t, Trigger::Spawn).then_some(r));
                    }
                    ControllerOut::Kill(r) => {
                        let p = &mut self.procs[r];
                        if !matches!(p.state, State::Frozen | State::Gone(_)) {
                            self.faulted[r] = self.now;
                        }
                        if !matches!(p.state, State::Gone(_)) {
                            p.state = State::Gone(SIGKILL);
                        }
                    }
                    ControllerOut::Finish => self.outcome = Some(Ok(())),
                }
            }
            if let Some(ev) = self.ctl.rejoins.get(rejoins) {
                let (seed, dead) = (self.seed, ev.rank);
                assert!(
                    self.now - self.faulted[dead] <= HB_TIMEOUT + REJOIN_BOUND,
                    "seed {seed}: rank {dead}'s death took {:?} to rejoin",
                    self.now - self.faulted[dead]
                );
                for (r, p) in self.procs.iter().enumerate() {
                    assert!(
                        p.reporting,
                        "seed {seed}: rank {r} not parked when epoch {} resumed",
                        ev.epoch
                    );
                }
            }
        }

        /// Feed rank `r`'s process one input and carry out its outputs.
        fn member(&mut self, r: usize, input: MemberIn) {
            let seed = self.seed;
            let mut out = Vec::new();
            let p = &mut self.procs[r];
            let before = p.core.epoch();
            if let MemberIn::Report { .. } = input {
                let epoch = p.core.parked().unwrap_or(before + 1);
                let parks = &mut self.parks[r];
                assert!(
                    parks.last().is_none_or(|&e| e < epoch),
                    "seed {seed}: rank {r} parks for epoch {epoch} again ({parks:?})"
                );
                parks.push(epoch);
                p.reporting = true;
            }
            if let Err(e) = p.core.handle(self.now, input, &mut out) {
                // The shell panics and the process exits; only a stalled
                // peer may keep a member waiting that long.
                assert!(self.stalled, "seed {seed}: {e}");
                p.state = State::Gone(PANICKED);
                return;
            }
            for o in out {
                let p = &mut self.procs[r];
                match o {
                    MemberOut::Send(f) => {
                        if matches!(f.tag, OP_PARKED | OP_READY) {
                            p.reported = word(&f);
                        }
                        self.send_ctl(f);
                    }
                    MemberOut::Go(epoch) => {
                        assert_eq!(epoch, p.born, "seed {seed}: rank {r} took an old GO");
                        if p.core.rejoining() {
                            // The replacement restores its newest
                            // checkpoint, then reports ready.
                            let ckpt = 63 - self.disk[r].leading_zeros() as i64;
                            p.saved = ckpt;
                            self.member(r, MemberIn::Report { ready: true, ckpt });
                        } else {
                            p.state = State::Working;
                            let inc = p.inc;
                            self.at(self.now, Ev::Work { rank: r, inc });
                        }
                    }
                    MemberOut::Resume { epoch, resume } => {
                        let ev = self.ctl.rejoins.iter().find(|e| e.epoch == epoch);
                        let ev = ev.unwrap_or_else(|| {
                            panic!("seed {seed}: rank {r} resumed into unfinished epoch {epoch}")
                        });
                        assert!(
                            epoch > before && epoch >= p.park_seen,
                            "seed {seed}: rank {r} in epoch {before} took RESUME({epoch}) \
                             after PARK({})",
                            p.park_seen
                        );
                        assert_eq!(resume as i64 - 1, ev.resume_cycle, "seed {seed}");
                        // The minimum: never past this rank's own report,
                        // and loadable from its files.
                        assert!(resume <= p.reported, "seed {seed}: rank {r}");
                        assert!(
                            resume == 0 || self.disk[r] >> (resume - 1) & 1 == 1,
                            "seed {seed}: rank {r} has no checkpoint {}",
                            resume - 1
                        );
                        p.cycle = resume;
                        p.saved = resume as i64 - 1;
                        p.reporting = false;
                        p.state = State::Working;
                        let inc = p.inc;
                        self.at(self.now, Ev::Work { rank: r, inc });
                        self.wake_blocked();
                    }
                }
            }
            let p = &mut self.procs[r];
            if p.state == State::Blocked && p.core.parked().is_some() {
                p.state = State::Working;
                let inc = p.inc;
                self.at(self.now, Ev::Work { rank: r, inc });
            }
            let p = &mut self.procs[r];
            if p.state == State::Waiting && !p.turn_pending {
                p.turn_pending = true;
                let inc = p.inc;
                self.at(self.now + MEMBER_POLL, Ev::MemberTurn { rank: r, inc });
            }
        }

        /// Whether rank `r` can finish its cycle: every peer is computing
        /// in the same epoch and has reached it, or has finished.
        fn gate(&self, r: usize) -> bool {
            let me = &self.procs[r];
            self.procs.iter().all(|p| match p.state {
                State::Gone(status) => status == EXIT_OK,
                State::Working | State::Blocked => {
                    p.core.epoch() == me.core.epoch()
                        && p.core.parked().is_none()
                        && p.cycle >= me.cycle
                }
                _ => false,
            })
        }

        fn wake_blocked(&mut self) {
            for r in 0..self.procs.len() {
                if self.procs[r].state == State::Blocked {
                    self.procs[r].state = State::Working;
                    let inc = self.procs[r].inc;
                    self.at(self.now + US, Ev::Work { rank: r, inc });
                }
            }
        }

        fn work(&mut self, r: usize) {
            if self.procs[r].state != State::Working {
                return;
            }
            if self.procs[r].core.parked().is_some() {
                self.procs[r].state = State::Waiting;
                let ckpt = self.procs[r].saved;
                return self.member(r, MemberIn::Report { ready: false, ckpt });
            }
            if !self.gate(r) {
                self.procs[r].state = State::Blocked;
                return;
            }
            let p = &mut self.procs[r];
            self.disk[r] |= 1 << p.cycle;
            p.saved = p.cycle as i64;
            p.cycle += 1;
            if p.cycle == self.total {
                p.state = State::Gone(EXIT_OK);
                self.send_ctl(ctl_frame(r as u32, OP_DONE, 0, 0, None));
            } else {
                let inc = p.inc;
                self.at(self.now + self.cycle_time[r], Ev::Work { rank: r, inc });
            }
            self.wake_blocked();
        }

        fn fault(&mut self, f: Fault) {
            let (Fault::Kill(r) | Fault::Freeze(r) | Fault::Hang(r)) = f;
            let p = &mut self.procs[r];
            let live = matches!(p.state, State::Waiting | State::Working | State::Blocked);
            p.state = match f {
                Fault::Kill(_) if !matches!(p.state, State::Gone(_)) => State::Gone(SIGKILL),
                Fault::Freeze(_) if live => State::Frozen,
                Fault::Hang(_) if matches!(p.state, State::Working | State::Blocked) => State::Hung,
                _ => return,
            };
            self.faulted[r] = self.now;
            self.stalled |= !matches!(f, Fault::Kill(_));
        }

        /// Run until the controller finishes or fails.
        fn run(&mut self) {
            let bound = STARTUP_TIMEOUT + WORLD_TIMEOUT + EPOCH_TIMEOUT * 6;
            self.at(self.ctl.poll_interval(), Ev::CtlTurn);
            for rank in 0..self.procs.len() {
                self.at(self.spawn_time, Ev::Boot { rank, inc: 0 });
            }
            while self.outcome.is_none() {
                let Reverse((t, i)) = self.queue.pop().expect("the controller always ticks");
                assert!(t <= bound, "seed {}: the world never ends", self.seed);
                self.now = t;
                let live = |p: &Proc, inc: u32| p.inc == inc;
                match self.evs[i].take().expect("each event runs once") {
                    Ev::CtlTurn => {
                        self.ctl_turn(None);
                        self.at(t + self.ctl.poll_interval(), Ev::CtlTurn);
                    }
                    Ev::ToCtl(f) => self.ctl_turn(Some(f)),
                    Ev::ToMember { to, inc, frame } => {
                        let p = &mut self.procs[to];
                        let reads =
                            matches!(p.state, State::Waiting | State::Working | State::Blocked);
                        if live(p, inc) && reads {
                            if frame.tag == OP_PARK {
                                p.park_seen = p.park_seen.max(frame.epoch);
                            }
                            self.member(to, MemberIn::Frame(frame));
                        }
                    }
                    Ev::Boot { rank, inc } => {
                        let p = &mut self.procs[rank];
                        if live(p, inc) && p.state == State::Booting {
                            p.state = State::Waiting;
                            p.core = Member::new(t, rank, inc > 0);
                            self.at(t, Ev::Beat { rank, inc });
                            self.member(rank, MemberIn::Tick);
                        }
                    }
                    Ev::MemberTurn { rank, inc } => {
                        let p = &mut self.procs[rank];
                        if live(p, inc) {
                            p.turn_pending = false;
                            if p.state == State::Waiting {
                                self.member(rank, MemberIn::Tick);
                            }
                        }
                    }
                    Ev::Beat { rank, inc } => {
                        let p = &self.procs[rank];
                        if live(p, inc) && !matches!(p.state, State::Frozen | State::Gone(_)) {
                            let beat = ctl_frame(rank as u32, OP_BEAT, 0, 0, Some(p.cycle));
                            self.send_ctl(beat);
                            self.at(t + BEAT_INTERVAL, Ev::Beat { rank, inc });
                        }
                    }
                    Ev::Work { rank, inc } => {
                        if live(&self.procs[rank], inc) {
                            self.work(rank);
                        }
                    }
                    Ev::Fault(f) => self.fault(f),
                }
            }
        }
    }

    /// How a schedule ended, for the sweep's tally.
    #[derive(Clone, Copy, Default)]
    struct Tally {
        finished: usize,
        rejoins: usize,
        failed: usize,
        /// Ended at the world deadline behind a hung rank.
        unnamed: usize,
    }

    /// Build and run schedule `seed`, then check how it ended; the error
    /// the world failed with, if it did.
    fn run_schedule(seed: u64) -> (Tally, Option<String>) {
        let mut rng = FaultRng::new(mix(&[seed, 0x3E3B]));
        let n = 2 + rng.below(7) as usize;
        let total = 4 + rng.below(13);
        let cycle_time: Vec<Duration> = (0..n).map(|_| MS * (2 + rng.below(18) as u32)).collect();
        let rate = |rng: &mut FaultRng| {
            if rng.chance(0.5) {
                rng.below(31) as f64 / 100.0
            } else {
                0.0
            }
        };
        let run_len = 12 * total;
        let kill_at = rng
            .chance(0.125)
            .then(|| (rng.below(n as u64) as usize, rng.below(total)));
        let max_rejoins = 1 + rng.below(4) as u32;
        let mut sim = Sim {
            seed,
            now: Duration::ZERO,
            queue: BinaryHeap::new(),
            evs: Vec::new(),
            ctl: Controller::new(Duration::ZERO, n, max_rejoins, WORLD_TIMEOUT, kill_at),
            ctl_out: Vec::new(),
            procs: (0..n).map(|r| Proc::new(0, 0, r, Duration::ZERO)).collect(),
            disk: vec![0; n],
            total,
            cycle_time,
            spawn_time: MS * (1 + rng.below(30) as u32),
            loss: rate(&mut rng),
            dup: rate(&mut rng),
            delay: rate(&mut rng),
            max_delay: MS * (1 + rng.below(300) as u32),
            trigger: None,
            faulted: vec![Duration::ZERO; n],
            stalled: false,
            parks: vec![Vec::new(); n],
            outcome: None,
            rng: FaultRng::new(mix(&[seed, 0x3E3C])),
        };
        let mut faults = Vec::new();
        for _ in 0..1 + usize::from(rng.chance(0.25)) {
            let r = rng.below(n as u64) as usize;
            let t = MS * rng.below(run_len) as u32;
            let other = rng.below(n as u64) as usize;
            let delay = MS * rng.below(300) as u32;
            match rng.below(12) {
                // Before GO.
                0 => faults.push((MS * rng.below(60) as u32, Fault::Kill(r))),
                1 | 2 => faults.push((t, Fault::Kill(r))),
                // A second death while the survivors park, before the
                // replacement is ready, or as RESUME goes out.
                3 => sim.trigger = Some((Trigger::Park(other), delay)),
                4 => sim.trigger = Some((Trigger::Spawn, delay / 5)),
                5 => sim.trigger = Some((Trigger::Resume(other), delay / 3)),
                6 => faults.push((t, Fault::Freeze(r))),
                7 => faults.push((t, Fault::Hang(r))),
                _ => {}
            }
            if sim.trigger.is_some() && faults.is_empty() {
                faults.push((t, Fault::Kill(r)));
            }
        }
        for (t, f) in faults {
            sim.at(t, Ev::Fault(f));
        }
        sim.run();
        let mut tally = Tally {
            rejoins: sim.ctl.rejoins.len(),
            ..Tally::default()
        };
        let outcome = sim.outcome.take().expect("ran to an outcome");
        match &outcome {
            Ok(()) => {
                for (r, p) in sim.procs.iter().enumerate() {
                    assert_eq!(
                        (p.state, p.cycle),
                        (State::Gone(EXIT_OK), total),
                        "seed {seed}: rank {r} did not finish"
                    );
                }
                tally.finished = 1;
            }
            Err(e) => {
                let names_rank = e.split("rank").skip(1).any(|s| {
                    s.trim_start_matches(['s', ' ', '['])
                        .starts_with(|c: char| c.is_ascii_digit())
                });
                // A hung rank that keeps beating is only caught by the
                // world deadline, whose message names no rank.
                let found = sim.stalled && e.contains("exceeded its deadline");
                assert!(names_rank || found, "seed {seed}: {e}");
                let timed_out = e.contains("timed out") || e.contains("exceeded its deadline");
                assert!(!timed_out || sim.stalled, "seed {seed}: {e}");
                tally.failed = 1;
                tally.unnamed = usize::from(!names_rank);
            }
        }
        (tally, outcome.err())
    }

    // One seed of `run_schedule` per defect the sweep found, each failing
    // without its fix. Changing the order or number of the schedule's
    // draws changes what a seed means: find the seeds again then.

    /// A GO lost at startup, then a death before the HELLO resend: the
    /// survivor's HELLO during the rejoin still gets its GO.
    #[test]
    fn a_go_lost_before_a_death_is_sent_again() {
        run_schedule(56);
    }

    /// Both RESUME copies lost: the rank's next report gets its RESUME
    /// again, before the world deadline.
    #[test]
    fn a_lost_resume_is_sent_again() {
        run_schedule(275);
    }

    /// A delayed READY from the previous replacement does not count as the
    /// new replacement's.
    #[test]
    fn a_stale_report_does_not_count_for_a_later_epoch() {
        run_schedule(1559);
    }

    /// A delayed RESUME of an epoch the member has been parked past does
    /// not put it back into that epoch.
    #[test]
    fn a_resume_older_than_the_park_is_refused() {
        run_schedule(6422);
    }

    /// A rank stopped before its HELLO: the startup timeout names it.
    #[test]
    fn a_rank_silent_at_startup_is_named() {
        run_schedule(24);
    }

    /// Rank 1 stopped before its HELLO while rank 0 waits for GO: the
    /// controller's startup barrier ends the world and names rank 1, and
    /// rank 0's own GO wait, which outlasts the barrier, blames nobody.
    #[test]
    fn a_silent_rank_not_a_waiting_one_is_blamed_at_startup() {
        let err = run_schedule(96).1.expect("the start fails");
        assert!(err.contains("HELLOs from ranks [1]"), "{err}");
    }

    /// The sweep: kills in every phase (a second one during PARK, before
    /// READY or at RESUME), stopped and hung ranks, and control frames
    /// lost, duplicated and delayed at up to 30 % each, over 2–8 ranks. A
    /// failing schedule names its seed; `run_schedule(seed)` replays it.
    #[test]
    fn membership_schedule_sweep() {
        let schedules: u64 = if cfg!(debug_assertions) {
            2_000
        } else {
            10_000
        };
        let start = std::time::Instant::now();
        let t = std::thread::scope(|s| {
            let half = |lo: u64, hi: u64| {
                s.spawn(move || {
                    (lo..hi)
                        .map(|seed| run_schedule(seed).0)
                        .fold(Tally::default(), |a, b| Tally {
                            finished: a.finished + b.finished,
                            rejoins: a.rejoins + b.rejoins,
                            failed: a.failed + b.failed,
                            unnamed: a.unnamed + b.unnamed,
                        })
                })
            };
            let (a, b) = (half(0, schedules / 2), half(schedules / 2, schedules));
            let (a, b) = (a.join().unwrap(), b.join().unwrap());
            Tally {
                finished: a.finished + b.finished,
                rejoins: a.rejoins + b.rejoins,
                failed: a.failed + b.failed,
                unnamed: a.unnamed + b.unnamed,
            }
        });
        println!(
            "membership sweep: {schedules} schedules, {} finished, {} rejoin epochs, {} failed \
             naming a rank, {} failed at the world deadline behind a hung rank, {:.2} s",
            t.finished,
            t.rejoins,
            t.failed - t.unnamed,
            t.unnamed,
            start.elapsed().as_secs_f64()
        );
    }
}
