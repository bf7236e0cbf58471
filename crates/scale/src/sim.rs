//! The discrete-event schedule simulator.
//!
//! Walks the same V-cycle operation schedule as the one-rank
//! [`vcycle`](crate::vcycle) simulator ([`VcycleSchedule`]: descent smooths with
//! communication-avoiding margin tracking, restriction, coarse init,
//! bottom solve, ascent interpolation + smooths), adds a per-cycle
//! residual allreduce, and prices it with a **per-rank virtual clock**
//! for 10k–100k ranks. The schedule
//! is SPMD, so no event queue is needed: each collective phase advances
//! every rank's clock in lockstep, and the only cross-rank coupling —
//! ghost-exchange messages and the allreduce tree — is resolved with a
//! two-pass send/receive sweep per phase. Kernel costs and the base
//! network come from the [`Platform`] the one-rank simulator prices on;
//! wire costs compose that network with the [`ContentionModel`] (switch
//! stages, link sharing, message-rate limits, allreduce tree depth).
//!
//! Observability is the point: in [`RecordMode::Events`] the simulator
//! emits per-rank [`gmg_flight`] logs — sends, deliveries, and receive
//! waits carrying exact `(rank, msg_seq)` wire sequence numbers, plus
//! ARQ retransmit events for modelled losses — so `rebuild_trace` and
//! everything that reads its trace (the wait classifier, the critical
//! path, the Perfetto export) run on a simulated 10k-rank world
//! unchanged.
//!
//! Determinism: per-rank compute jitter and message loss are pure
//! functions of `(seed, phase, rank)` via splitmix64 — same config,
//! same timeline, bit for bit.

use std::collections::BTreeMap;

use gmg_comm::model::NetworkModel;
use gmg_flight::{RankLog, SynthLog, NO_LEVEL};
use gmg_machine::contention::ContentionModel;
use gmg_machine::gpu::System;
use gmg_machine::CpuModel;
use gmg_mesh::Point3;
use gmg_stencil::{VcycleSchedule, VcycleShape, VcycleStep};

use crate::platform::{brick_shell_bytes, Platform};
use crate::topology::{nodes_for, RankGrid, FACE_DIRS};
use crate::vcycle::ScheduleConfig;

/// Message tag carried by allreduce tree hops (exchange messages carry
/// their level as the tag).
pub const ALLREDUCE_TAG: u64 = 0xA11;

/// What the simulator records while it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordMode {
    /// Advance clocks only — for timing sweeps and throughput benches.
    ClockOnly,
    /// Additionally build per-rank flight logs: comm events (sends,
    /// arrivals, waits, ARQ) on every rank; compute spans too for ranks
    /// inside the configured window.
    Events,
}

/// Configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    pub system: System,
    /// Simulated MPI ranks (one GPU each).
    pub ranks: usize,
    pub ranks_per_node: usize,
    /// Per-rank subdomain extent at the finest level.
    pub sub_extent: Point3,
    pub num_levels: usize,
    pub smooths_per_level: usize,
    pub bottom_smooths: usize,
    pub vcycles: usize,
    pub contention: ContentionModel,
    pub communication_avoiding: bool,
    /// Offload levels with at most this many cells per rank to the host
    /// CPU (the coarse-level ablation); `None` = all-GPU.
    pub cpu_offload_below_cells: Option<usize>,
    pub seed: u64,
    /// Per-kernel multiplicative compute jitter amplitude, percent
    /// (uniform in `±jitter_pct`); models OS noise / clock variance.
    pub jitter_pct: f64,
    /// Fraction of exchange messages lost once and recovered by ARQ
    /// retransmit (deterministically seeded).
    pub loss_rate: f64,
    /// Planted per-level compute slowdown `(level, percent)` — the
    /// attribution self-test's positive polarity.
    pub inject_slowdown: Option<(usize, f64)>,
    pub record: RecordMode,
    /// Rank window `[lo, hi)` whose logs also carry compute spans (the
    /// Perfetto export window).
    pub window: (usize, usize),
}

impl ScaleConfig {
    /// Observatory defaults at `ranks` ranks: 128³ per rank, 6 levels,
    /// communication-avoiding, Slingshot-class contention, 2% jitter,
    /// 0.2% message loss. Sized so the 10k-rank event run fits
    /// laptop-class memory.
    pub fn observatory(system: System, ranks: usize) -> ScaleConfig {
        ScaleConfig {
            system,
            ranks,
            ranks_per_node: 4,
            sub_extent: Point3::splat(128),
            num_levels: 6,
            smooths_per_level: 6,
            bottom_smooths: 24,
            vcycles: 2,
            contention: ContentionModel::slingshot(),
            communication_avoiding: true,
            cpu_offload_below_cells: None,
            seed: 7,
            jitter_pct: 2.0,
            loss_rate: 0.002,
            inject_slowdown: None,
            record: RecordMode::ClockOnly,
            window: (0, 8),
        }
    }

    pub fn nodes(&self) -> usize {
        nodes_for(self.ranks, self.ranks_per_node)
    }

    /// The one-rank V-cycle simulator's view of this run: the same
    /// system, per-rank hierarchy, smooth counts, V-cycles and offload.
    pub fn schedule(&self) -> ScheduleConfig {
        ScheduleConfig {
            system: self.system,
            sub_extent: self.sub_extent,
            num_levels: self.num_levels,
            smooths_per_level: self.smooths_per_level,
            bottom_smooths: self.bottom_smooths,
            vcycles: self.vcycles,
            nodes: self.nodes(),
            ranks_per_node: self.ranks_per_node,
            communication_avoiding: self.communication_avoiding,
            gpu_aware_override: None,
            cpu_offload_below_cells: self.cpu_offload_below_cells,
        }
    }
}

/// Per-level decomposition of one simulated run.
#[derive(Clone, Debug)]
pub struct LevelDecomp {
    pub level: usize,
    pub cells_per_rank: usize,
    /// Mean simulated compute seconds per rank (jitter + any injection).
    pub compute_mean_s: f64,
    /// Analytic compute seconds per rank from the same cost model with
    /// zero jitter and no injection — the attribution baseline.
    pub compute_predicted_s: f64,
    /// Mean exchange seconds per rank (posting + receive waits).
    pub exchange_mean_s: f64,
    /// Exchange invocations per rank over the run.
    pub exchanges: usize,
}

/// Result of one simulated run. It carries rank logs and interned-key
/// tables; the bench driver writes out the summary fields it needs.
#[derive(Clone, Debug)]
pub struct ScaleResult {
    pub ranks: usize,
    pub nodes: usize,
    pub grid: [usize; 3],
    pub vcycles: usize,
    /// Slowest rank's final clock — the job's wall time.
    pub total_seconds: f64,
    pub per_vcycle_seconds: f64,
    /// Mean final clock across ranks.
    pub mean_seconds: f64,
    pub levels: Vec<LevelDecomp>,
    /// Mean per-rank allreduce seconds over the run.
    pub allreduce_mean_s: f64,
    /// Mean per-rank receive-wait seconds over the run.
    pub wait_mean_s: f64,
    /// Modelled timeline entries processed (kernel executions, message
    /// legs, waits) — the simulator-throughput denominator.
    pub sim_events: u64,
    /// Aggregate throughput: global finest cells × vcycles / wall.
    pub gstencil_per_s: f64,
    /// Per-rank flight logs ([`RecordMode::Events`] only).
    pub logs: Option<Vec<RankLog>>,
    /// Per-`(level, op)` per-rank simulated seconds, for the aggregate
    /// imbalance table (`gmg_metrics::imbalance_from_seconds`).
    pub op_rank_seconds: BTreeMap<(usize, &'static str), Vec<f64>>,
}

impl ScaleResult {
    /// Weak-scaling parallel efficiency against a smaller run of the
    /// same per-rank problem.
    pub fn weak_efficiency(&self, baseline: &ScaleResult) -> f64 {
        let a = self.gstencil_per_s / self.ranks as f64;
        let b = baseline.gstencil_per_s / baseline.ranks as f64;
        a / b
    }

    /// Strong-scaling efficiency: speedup over baseline divided by the
    /// rank ratio.
    pub fn strong_efficiency(&self, baseline: &ScaleResult) -> f64 {
        (baseline.total_seconds / self.total_seconds) / (self.ranks as f64 / baseline.ranks as f64)
    }

    /// Levels whose simulated mean compute exceeds the analytic
    /// prediction by more than `threshold` (fractional, e.g. 0.08).
    /// Jitter is symmetric, so a clean run's excess is ~0 and the set
    /// is empty; a planted slowdown shows up as exactly its level.
    pub fn flagged_levels(&self, threshold: f64) -> Vec<usize> {
        self.levels
            .iter()
            .filter(|l| {
                l.compute_predicted_s > 0.0
                    && (l.compute_mean_s - l.compute_predicted_s) / l.compute_predicted_s
                        > threshold
            })
            .map(|l| l.level)
            .collect()
    }

    /// Rows for [`gmg_metrics::analysis::imbalance_from_seconds`].
    pub fn imbalance_rows(&self) -> impl Iterator<Item = (usize, String, usize, f64)> + '_ {
        self.op_rank_seconds
            .iter()
            .flat_map(|(&(level, op), per_rank)| {
                per_rank
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| s > 0.0)
                    .map(move |(rank, &s)| (level, op.to_string(), rank, s))
            })
    }
}

/// splitmix64 — the deterministic noise source.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from a hash of `(seed, phase, rank)`.
fn unit_noise(seed: u64, phase: u64, rank: u64) -> f64 {
    let h = splitmix64(
        seed ^ phase.wrapping_mul(0xD6E8FEB86659FD93) ^ rank.wrapping_mul(0xCA5A826395121157),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Precomputed per-level message-path costs.
struct LevelCost {
    /// Bytes per modelled face message: the 26-direction plan's total
    /// bytes folded onto the six face-class messages the event stream
    /// carries (edge/corner payloads ride with the faces).
    face_bytes: f64,
    /// Sender-side cost to post one message (software overhead +
    /// NIC message-rate queueing).
    post_s: f64,
    /// Wire time for one face message: switch-stage traversal + payload
    /// at the contended bandwidth (+ host staging when not GPU-aware).
    transit_s: f64,
    /// Receiver-side matching/delivery share per message.
    deliver_s: f64,
    /// Retransmit timeout added to a lost message's delivery.
    rto_s: f64,
}

struct Sim<'a> {
    cfg: &'a ScaleConfig,
    /// Kernel costs and the base network (no `at_scale` derate:
    /// fabric-scale effects come from the explicit [`ContentionModel`]).
    platform: Platform,
    /// Owned cells per rank, per level.
    cells: Vec<usize>,
    /// Whether each level runs on the host CPU.
    on_cpu: Vec<bool>,
    grid: RankGrid,
    neighbors: Vec<[usize; FACE_DIRS]>,
    costs: Vec<LevelCost>,
    /// One allreduce tree hop (contention hop + per-message software).
    allreduce_hop: f64,
    clock: Vec<f64>,
    /// Per-rank wire sequence counter (unique per sender).
    seq: Vec<u64>,
    logs: Option<Vec<SynthLog>>,
    phase: u64,
    compute_s: Vec<Vec<f64>>,
    predicted_s: Vec<f64>,
    exchange_s: Vec<Vec<f64>>,
    exchanges: Vec<usize>,
    wait_s: Vec<f64>,
    allreduce_s: Vec<f64>,
    op_rank_s: BTreeMap<(usize, &'static str), Vec<f64>>,
    events: u64,
    // Reused per-exchange scratch: inbound messages grouped by receiver.
    inbound: Vec<Vec<InMsg>>,
}

#[derive(Clone, Copy)]
struct InMsg {
    /// Receiver-side face direction (fixed receive order).
    dir: usize,
    src: usize,
    msg_seq: u64,
    arrive_ts: f64,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a ScaleConfig, shape: &VcycleShape) -> Self {
        let platform = Platform::paper(cfg.system);
        let cells: Vec<usize> = (0..cfg.num_levels).map(|li| shape.cells(li)).collect();
        let on_cpu: Vec<bool> = cells
            .iter()
            .map(|&c| CpuModel::offloads(cfg.cpu_offload_below_cells, c))
            .collect();
        let grid = RankGrid::near_cubic(cfg.ranks);
        let neighbors = (0..cfg.ranks).map(|r| grid.face_neighbors(r)).collect();
        let net = &platform.net;
        let nodes = cfg.nodes();
        let costs = (0..cfg.num_levels)
            .map(|li| cfg.level_cost(shape, li, on_cpu[li], net, nodes))
            .collect();
        let logs = match cfg.record {
            RecordMode::ClockOnly => None,
            RecordMode::Events => Some((0..cfg.ranks).map(SynthLog::new).collect()),
        };
        let allreduce_hop = cfg.contention.allreduce_hop_s + net.per_message_s;
        Sim {
            cfg,
            platform,
            cells,
            on_cpu,
            grid,
            neighbors,
            costs,
            allreduce_hop,
            clock: vec![0.0; cfg.ranks],
            seq: vec![0; cfg.ranks],
            logs,
            phase: 0,
            compute_s: vec![vec![0.0; cfg.ranks]; cfg.num_levels],
            predicted_s: vec![0.0; cfg.num_levels],
            exchange_s: vec![vec![0.0; cfg.ranks]; cfg.num_levels],
            exchanges: vec![0; cfg.num_levels],
            wait_s: vec![0.0; cfg.ranks],
            allreduce_s: vec![0.0; cfg.ranks],
            op_rank_s: BTreeMap::new(),
            events: 0,
            inbound: vec![Vec::new(); cfg.ranks],
        }
    }

    fn ns(t: f64) -> u64 {
        (t * 1e9).round() as u64
    }

    /// One SPMD compute phase: every rank runs the same kernel, with
    /// per-rank jitter and (if planted) the per-level injection.
    fn compute_phase(&mut self, li: usize, op: &'static str, base_t: f64, points: usize) {
        self.phase += 1;
        self.predicted_s[li] += base_t;
        let inject = match self.cfg.inject_slowdown {
            Some((l, pct)) if l == li => 1.0 + pct / 100.0,
            _ => 1.0,
        };
        let n = self.cfg.ranks;
        let per_op = self
            .op_rank_s
            .entry((li, op))
            .or_insert_with(|| vec![0.0; n]);
        let (wlo, whi) = self.cfg.window;
        for r in 0..n {
            let t = base_t * inject * {
                if self.cfg.jitter_pct == 0.0 {
                    1.0
                } else {
                    let u = unit_noise(self.cfg.seed, self.phase, r as u64);
                    1.0 + self.cfg.jitter_pct / 100.0 * (2.0 * u - 1.0)
                }
            };
            let ts = self.clock[r];
            self.clock[r] = ts + t;
            self.compute_s[li][r] += t;
            per_op[r] += t;
            if let Some(logs) = &mut self.logs {
                if (wlo..whi).contains(&r) {
                    logs[r].compute(op, li as u32, Self::ns(ts), Self::ns(t), points as u64);
                }
            }
        }
        self.events += n as u64;
    }

    /// One ghost exchange at level `li`: each rank posts its six face
    /// messages, then receives its six inbound messages in fixed
    /// direction order, waiting on each.
    fn exchange_phase(&mut self, li: usize) {
        self.phase += 1;
        let cost = &self.costs[li];
        let n = self.cfg.ranks;
        let tag = li as u64;
        // Pass 1: posts. All sends of the phase resolve before any
        // receive is examined (receivers need senders' timestamps).
        for r in 0..n {
            for (i, &dst) in self.neighbors[r].iter().enumerate() {
                self.clock[r] += cost.post_s;
                self.exchange_s[li][r] += cost.post_s;
                self.seq[r] += 1;
                let msg_seq = self.seq[r];
                let send_ts = self.clock[r];
                // Loss fate is pure in (seed, phase-independent stream):
                // keyed by sender and wire seq so retries of the same
                // config replay identically.
                let lost = self.cfg.loss_rate > 0.0
                    && unit_noise(self.cfg.seed ^ 0x10_55, msg_seq, r as u64) < self.cfg.loss_rate;
                let arrive_ts = send_ts + cost.transit_s + if lost { cost.rto_s } else { 0.0 };
                if let Some(logs) = &mut self.logs {
                    logs[r].send(
                        li as u32,
                        Self::ns(send_ts),
                        dst as u32,
                        tag,
                        msg_seq,
                        cost.face_bytes as u64,
                    );
                    if lost {
                        logs[r].arq(
                            "arq:retransmit",
                            Self::ns(send_ts + cost.rto_s),
                            dst as u32,
                            msg_seq,
                        );
                    }
                }
                self.inbound[dst].push(InMsg {
                    dir: i ^ 1,
                    src: r,
                    msg_seq,
                    arrive_ts,
                });
            }
        }
        // Pass 2: receives, in fixed face order per rank.
        for r in 0..n {
            let mut msgs = std::mem::take(&mut self.inbound[r]);
            msgs.sort_by_key(|m| (m.dir, m.src));
            let mut cursor = self.clock[r];
            for m in &msgs {
                let ready = m.arrive_ts + cost.deliver_s;
                let wait_start = cursor;
                cursor = cursor.max(ready);
                let waited = cursor - wait_start;
                self.wait_s[r] += waited;
                self.exchange_s[li][r] += waited;
                if let Some(logs) = &mut self.logs {
                    logs[r].arrive(
                        li as u32,
                        Self::ns(m.arrive_ts),
                        m.src as u32,
                        tag,
                        m.msg_seq,
                        cost.face_bytes as u64,
                    );
                    logs[r].recv_wait(
                        li as u32,
                        Self::ns(wait_start),
                        Self::ns(cursor) - Self::ns(wait_start),
                        m.src as u32,
                        tag,
                        m.msg_seq,
                    );
                }
            }
            self.clock[r] = cursor;
            msgs.clear();
            self.inbound[r] = msgs; // keep the allocation for the next phase
        }
        self.exchanges[li] += 1;
        self.events += n as u64 * (FACE_DIRS as u64) * 3;
    }

    /// Coarse-level initialization (zero fill of the owned cells) — same
    /// for every rank.
    fn init_zero(&mut self, li: usize) {
        let cells = self.cells[li];
        let bytes = cells as f64 * 8.0;
        let t = if self.on_cpu[li] {
            self.platform.cpu.stream_time_s(bytes)
        } else {
            self.platform.gpu.stream_time_s(bytes)
        };
        self.compute_phase(li, "initZero", t, cells);
    }

    /// Advance every rank's clock through one schedule step.
    fn run_step(&mut self, step: VcycleStep) {
        match step {
            VcycleStep::Exchange { level } => self.exchange_phase(level),
            VcycleStep::Kernel { level, op, points } => {
                let t = self.platform.kernel_s(op, points, self.on_cpu[level]);
                self.compute_phase(level, op.name(), t, points);
            }
            VcycleStep::Smooth { .. } => {}
            VcycleStep::InitZero { level, .. } => self.init_zero(level),
        }
    }

    /// Per-cycle residual allreduce over a binomial tree (reduce to
    /// rank 0, broadcast back). Tree hops are 8-byte latency-bound
    /// messages; the waits this phase records are where late-sender
    /// time concentrates at scale.
    fn allreduce_phase(&mut self) {
        self.phase += 1;
        let n = self.cfg.ranks;
        if n <= 1 {
            return;
        }
        let hop = self.allreduce_hop;
        let before: Vec<f64> = self.clock.clone();
        // Reduce: children (higher ids) feed parents. Descending order
        // guarantees every child's send is resolved before its parent
        // (parent id = child id with the lowest set bit cleared).
        let mut ready = self.clock.clone();
        let mut sent_at = vec![f64::NAN; n];
        for r in (1..n).rev() {
            let p = r & (r - 1);
            self.seq[r] += 1;
            let msg_seq = self.seq[r];
            let send_ts = ready[r];
            sent_at[r] = send_ts;
            let arrive = send_ts + hop;
            let wait_start = ready[p];
            let wait_end = wait_start.max(arrive);
            if let Some(logs) = &mut self.logs {
                logs[r].send(
                    NO_LEVEL,
                    Self::ns(send_ts),
                    p as u32,
                    ALLREDUCE_TAG,
                    msg_seq,
                    8,
                );
                logs[p].arrive(
                    NO_LEVEL,
                    Self::ns(arrive),
                    r as u32,
                    ALLREDUCE_TAG,
                    msg_seq,
                    8,
                );
                logs[p].recv_wait(
                    NO_LEVEL,
                    Self::ns(wait_start),
                    Self::ns(wait_end) - Self::ns(wait_start),
                    r as u32,
                    ALLREDUCE_TAG,
                    msg_seq,
                );
            }
            ready[p] = wait_end;
            self.events += 3;
        }
        // Broadcast: parents (lower ids) feed children, ascending.
        let mut bcast = vec![0.0f64; n];
        bcast[0] = ready[0];
        for r in 1..n {
            let p = r & (r - 1);
            self.seq[p] += 1;
            let msg_seq = self.seq[p];
            let send_ts = bcast[p];
            let arrive = send_ts + hop;
            // A non-root rank has been idle since it fed its parent.
            let wait_start = sent_at[r];
            let wait_end = wait_start.max(arrive);
            if let Some(logs) = &mut self.logs {
                logs[p].send(
                    NO_LEVEL,
                    Self::ns(send_ts),
                    r as u32,
                    ALLREDUCE_TAG,
                    msg_seq,
                    8,
                );
                logs[r].arrive(
                    NO_LEVEL,
                    Self::ns(arrive),
                    p as u32,
                    ALLREDUCE_TAG,
                    msg_seq,
                    8,
                );
                logs[r].recv_wait(
                    NO_LEVEL,
                    Self::ns(wait_start),
                    Self::ns(wait_end) - Self::ns(wait_start),
                    p as u32,
                    ALLREDUCE_TAG,
                    msg_seq,
                );
            }
            bcast[r] = wait_end;
            self.events += 3;
        }
        for r in 0..n {
            let end = if r == 0 { ready[0] } else { bcast[r] };
            self.allreduce_s[r] += end - before[r];
            self.clock[r] = end;
        }
    }
}

impl ScaleConfig {
    fn level_cost(
        &self,
        shape: &VcycleShape,
        li: usize,
        on_cpu: bool,
        net: &NetworkModel,
        nodes: usize,
    ) -> LevelCost {
        let total_bytes: usize = brick_shell_bytes(shape.extents[li], shape.ghost_depth[li])
            .iter()
            .sum();
        // The timing-relevant payload is the full 26-direction plan;
        // the event stream models the six face-class messages, so the
        // edge/corner bytes ride with the faces.
        let face_bytes = total_bytes as f64 / FACE_DIRS as f64;
        let handshake = if net.hardware_matching {
            net.rdzv_handshake_s * 0.5
        } else {
            net.rdzv_handshake_s
        };
        let c = &self.contention;
        let (alpha_c, beta_gbs) = c.contended_alpha_beta(0.0, net.sustained_gbs, nodes);
        let mut transit_s = alpha_c + face_bytes / (beta_gbs * 1e9);
        let mut post_s = net.per_message_s + handshake + c.message_rate_delay_s(1);
        let mut deliver_s = net.base_latency_s / FACE_DIRS as f64;
        if on_cpu {
            // Host-resident level: no device staging and a shorter
            // software path — mirror the core schedule's 0.5× host
            // discount.
            post_s *= 0.5;
            deliver_s *= 0.5;
        } else if !net.gpu_aware {
            // Surface crosses PCIe on both sides.
            transit_s += net.staging_latency_s / FACE_DIRS as f64
                + 2.0 * face_bytes / (net.staging_gbs * 1e9);
        }
        // Retransmit timeout: a few round trips of the contended path.
        let rto_s = 4.0 * (net.base_latency_s + transit_s);
        LevelCost {
            face_bytes,
            post_s,
            transit_s,
            deliver_s,
            rto_s,
        }
    }
}

/// Run the simulation.
pub fn simulate(cfg: &ScaleConfig) -> ScaleResult {
    assert!(cfg.ranks >= 1 && cfg.vcycles >= 1);
    let shape = cfg.schedule().shape();
    if cfg.record == RecordMode::Events {
        let (lo, hi) = cfg.window;
        assert!(
            lo <= hi && hi <= cfg.ranks,
            "window {lo}..{hi} out of range"
        );
    }
    let mut sim = Sim::new(cfg, &shape);
    let mut schedule = VcycleSchedule::new(shape);
    for _ in 0..cfg.vcycles {
        schedule.vcycle(|step| sim.run_step(step));
        sim.allreduce_phase();
    }
    let n = cfg.ranks as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
    let levels = (0..cfg.num_levels)
        .map(|li| LevelDecomp {
            level: li,
            cells_per_rank: sim.cells[li],
            compute_mean_s: mean(&sim.compute_s[li]),
            compute_predicted_s: sim.predicted_s[li],
            exchange_mean_s: mean(&sim.exchange_s[li]),
            exchanges: sim.exchanges[li],
        })
        .collect();
    let total_seconds = sim.clock.iter().cloned().fold(0.0f64, f64::max);
    let finest_cells_global = cfg.sub_extent.product() as f64 * n;
    ScaleResult {
        ranks: cfg.ranks,
        nodes: cfg.nodes(),
        grid: sim.grid.dims,
        vcycles: cfg.vcycles,
        total_seconds,
        per_vcycle_seconds: total_seconds / cfg.vcycles as f64,
        mean_seconds: mean(&sim.clock),
        levels,
        allreduce_mean_s: mean(&sim.allreduce_s),
        wait_mean_s: mean(&sim.wait_s),
        sim_events: sim.events,
        gstencil_per_s: finest_cells_global * cfg.vcycles as f64 / total_seconds / 1e9,
        logs: sim.logs.map(gmg_flight::into_logs),
        op_rank_seconds: sim.op_rank_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_flight::rebuild_trace;
    use gmg_metrics::analysis::{classify_waits, WaitClass};

    fn tiny(ranks: usize) -> ScaleConfig {
        let mut c = ScaleConfig::observatory(System::Perlmutter, ranks);
        c.sub_extent = Point3::splat(32);
        c.num_levels = 3;
        c.smooths_per_level = 4;
        c.bottom_smooths = 8;
        c.vcycles = 1;
        c
    }

    #[test]
    fn determinism_bit_for_bit() {
        let cfg = tiny(27);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn event_logs_classify_fully() {
        let mut cfg = tiny(27);
        cfg.record = RecordMode::Events;
        cfg.window = (0, 4);
        let r = simulate(&cfg);
        let logs = r.logs.as_ref().unwrap();
        assert_eq!(logs.len(), 27);
        let wa = classify_waits(&rebuild_trace(logs));
        assert!(wa.total.count > 0);
        assert_eq!(
            wa.total.unattributed_ns, 0,
            "synthetic logs are complete: every wait must attribute"
        );
        assert!(wa.total.classified_fraction() >= 0.999);
        // Jitter + wire time must surface real wait classes.
        assert!(
            wa.total.class_ns(WaitClass::LateSender) + wa.total.class_ns(WaitClass::Starvation) > 0
        );
        // Window ranks carry compute spans; outside ranks comm only.
        use gmg_flight::Kind;
        assert!(logs[0].events.iter().any(|e| e.kind == Kind::Compute));
        assert!(logs[10].events.iter().all(|e| e.kind != Kind::Compute));
    }

    #[test]
    fn loss_shows_up_as_arq_stall() {
        let mut cfg = tiny(27);
        cfg.record = RecordMode::Events;
        cfg.loss_rate = 0.05;
        let r = simulate(&cfg);
        let wa = classify_waits(&rebuild_trace(r.logs.as_ref().unwrap()));
        assert!(
            wa.total.class_ns(WaitClass::ArqStall) > 0,
            "5% modelled loss must produce arq-stall wait time"
        );
        // And zero loss produces none.
        cfg.loss_rate = 0.0;
        let wa0 = classify_waits(&rebuild_trace(simulate(&cfg).logs.as_ref().unwrap()));
        assert_eq!(wa0.total.class_ns(WaitClass::ArqStall), 0);
    }

    #[test]
    fn injection_flags_exactly_its_level() {
        let mut clean = tiny(64);
        clean.vcycles = 2;
        let r_clean = simulate(&clean);
        assert!(
            r_clean.flagged_levels(0.08).is_empty(),
            "clean run must not flag: {:?}",
            r_clean.flagged_levels(0.08)
        );
        let mut hot = clean.clone();
        hot.inject_slowdown = Some((1, 30.0));
        let r_hot = simulate(&hot);
        assert_eq!(r_hot.flagged_levels(0.08), vec![1]);
    }

    #[test]
    fn weak_scaling_time_grows_gently() {
        let t = |ranks: usize| simulate(&tiny(ranks)).per_vcycle_seconds;
        let t8 = t(8);
        let t512 = t(512);
        assert!(t512 > t8, "scale must cost something");
        // Tiny 32³ boxes are comm-bound, so the growth is real but must
        // stay bounded: deeper allreduce tree + one extra fabric stage,
        // not a collapse.
        assert!(
            t512 < 2.0 * t8,
            "weak scaling should not collapse: {t8} -> {t512}"
        );
    }

    #[test]
    fn allreduce_grows_with_tree_depth() {
        let a = simulate(&tiny(8)).allreduce_mean_s;
        let b = simulate(&tiny(512)).allreduce_mean_s;
        assert!(b > a, "deeper tree must cost more: {a} vs {b}");
    }

    #[test]
    fn clock_only_matches_event_mode_timing() {
        let mut cfg = tiny(27);
        cfg.record = RecordMode::ClockOnly;
        let a = simulate(&cfg);
        cfg.record = RecordMode::Events;
        let b = simulate(&cfg);
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
    }

    #[test]
    fn cpu_offload_cuts_coarse_level_time() {
        let mut gpu_only = tiny(64);
        gpu_only.system = System::Sunspot;
        // Zero noise: with jitter, coarse-level speed differences shift
        // inter-rank skew and couple into level-0 ascent waits.
        gpu_only.jitter_pct = 0.0;
        gpu_only.loss_rate = 0.0;
        let mut off = gpu_only.clone();
        off.cpu_offload_below_cells = Some(8 * 8 * 8);
        assert!(CpuModel::offloads(off.cpu_offload_below_cells, 8 * 8 * 8));
        let g = simulate(&gpu_only);
        let o = simulate(&off);
        let last = gpu_only.num_levels - 1;
        let total =
            |r: &ScaleResult, l: usize| r.levels[l].compute_mean_s + r.levels[l].exchange_mean_s;
        assert!(total(&o, last) < total(&g, last));
        assert!((total(&o, 0) - total(&g, 0)).abs() < 1e-12);
    }

    #[test]
    fn kernel_seconds_equal_the_one_rank_simulators() {
        // Without jitter, loss, injection or offload every rank runs the
        // one-rank simulator's kernels on the same shape and platform:
        // per (level, op) the seconds agree bit for bit. `initZero` is
        // the observatory's own (owned cells only, no ghost shell), and
        // its exchanges add contention.
        for sys in System::ALL {
            let mut cfg = ScaleConfig::observatory(sys, 8);
            cfg.jitter_pct = 0.0;
            cfg.loss_rate = 0.0;
            assert!(cfg.inject_slowdown.is_none() && cfg.cpu_offload_below_cells.is_none());
            let observed = simulate(&cfg);
            let one_rank = crate::vcycle::simulate(&cfg.schedule());
            let mut kernels = 0;
            for l in &one_rank.levels {
                for (op, &secs) in &l.op_seconds {
                    if op == "exchange" || op == "initZero" {
                        continue;
                    }
                    let per_rank = &observed.op_rank_seconds[&(l.level, op.as_str())];
                    assert!(
                        per_rank.iter().all(|s| s.to_bits() == secs.to_bits()),
                        "{sys:?} level {} {op}: {per_rank:?} vs {secs}",
                        l.level
                    );
                    kernels += 1;
                }
            }
            let observed_kernels = observed
                .op_rank_seconds
                .keys()
                .filter(|(_, op)| *op != "initZero");
            assert_eq!(observed_kernels.count(), kernels, "{sys:?}");
        }
    }

    #[test]
    fn imbalance_rows_feed_metrics() {
        let mut cfg = tiny(8);
        cfg.jitter_pct = 5.0;
        let r = simulate(&cfg);
        let rows = gmg_metrics::analysis::imbalance_from_seconds(r.imbalance_rows(), r.ranks);
        assert!(!rows.is_empty());
        let smooth = rows
            .iter()
            .find(|x| x.level == 0 && x.op == "smooth+residual")
            .expect("smooth row");
        assert!(smooth.factor >= 1.0 && smooth.factor < 1.2);
    }
}
