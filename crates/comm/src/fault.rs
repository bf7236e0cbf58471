//! Deterministic fault injection for the rank runtime.
//!
//! The paper's solver runs on 512-GPU Slingshot machines where message
//! delay, reordering, duplication, corruption, stragglers, and outright
//! rank failure are everyday events. This module is the *chaos side* of
//! making the stack survive them: a seedable, fully deterministic model of
//! what a lossy interconnect does to messages, plus the typed error and
//! failure-report vocabulary the resilient runtime speaks.
//!
//! Design rules:
//!
//! * **Deterministic.** Every decision is a pure function of
//!   `(seed, sender rank, message sequence number, attempt)` — never of
//!   wall-clock time or thread interleaving — so a failing chaos run can be
//!   replayed exactly from its seed.
//! * **std-only.** No dependency on the channel transport; the runtime asks
//!   [`FaultInjector::fate`] what to do with each message and applies it to
//!   whatever transport it owns. This also keeps the module testable in
//!   isolation.
//!
//! The recovery side lives in `runtime.rs` (sequence numbers, checksums,
//! ACKs, bounded retransmission with exponential backoff) and in
//! `gmg-core`'s solver health guards.

use std::fmt;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed communication failure. The runtime's `try_*` APIs return these
/// instead of panicking; the panicking convenience wrappers formats them
/// into the panic payload so `RankWorld::try_run` can report them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer's inbox is gone (its rank thread exited or was killed).
    Disconnected { peer: usize },
    /// No matching message arrived before the deadline.
    Timeout {
        from: usize,
        tag: u64,
        waited_ms: u64,
    },
    /// A reliable send exhausted its retransmission budget without an ACK.
    RetriesExhausted {
        to: usize,
        tag: u64,
        seq: u64,
        attempts: u32,
    },
    /// This rank was killed by fault injection.
    Killed { rank: usize, at_op: u64 },
    /// A received frame failed to decode (socket transports only).
    Frame { err: crate::frame::FrameError },
    /// The membership controller parked this rank for an epoch change
    /// (a peer died and is being respawned). Recoverable: call
    /// [`crate::RankCtx::park_for_rejoin`] and resume from checkpoint.
    Parked { epoch: u64 },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected { peer } => {
                write!(f, "peer rank {peer} disconnected (inbox closed)")
            }
            CommError::Timeout {
                from,
                tag,
                waited_ms,
            } => write!(
                f,
                "timed out after {waited_ms} ms waiting for (from {from}, tag {tag})"
            ),
            CommError::RetriesExhausted {
                to,
                tag,
                seq,
                attempts,
            } => write!(
                f,
                "send to rank {to} (tag {tag}, seq {seq}) unacknowledged after {attempts} attempts"
            ),
            CommError::Killed { rank, at_op } => {
                write!(
                    f,
                    "rank {rank} killed by fault injection at comm op {at_op}"
                )
            }
            CommError::Frame { err } => write!(f, "frame decode failed: {err}"),
            CommError::Parked { epoch } => {
                write!(f, "parked for membership epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for CommError {}

// ---------------------------------------------------------------------------
// Failure reports
// ---------------------------------------------------------------------------

/// One rank's failure: the rank id and the panic payload / comm error that
/// took it down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankFailure {
    pub rank: usize,
    pub message: String,
}

/// Structured report of a failed world: *every* failed rank with its
/// payload, not just whichever `join` happened to be observed first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorldFailure {
    /// World size the run was launched with.
    pub nranks: usize,
    /// All failed ranks, in rank order.
    pub failures: Vec<RankFailure>,
    /// Flight-recorder black-box dump written at failure time (`None`
    /// when the recorder is disabled or the dump could not be written).
    pub flight_dump: Option<std::path::PathBuf>,
}

impl WorldFailure {
    /// Ids of the failed ranks, in rank order.
    pub fn ranks(&self) -> Vec<usize> {
        self.failures.iter().map(|f| f.rank).collect()
    }
}

impl fmt::Display for WorldFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} ranks failed:",
            self.failures.len(),
            self.nranks
        )?;
        for r in &self.failures {
            write!(f, "\n  rank {}: {}", r.rank, r.message)?;
        }
        if let Some(d) = &self.flight_dump {
            write!(f, "\n  flight recorder dump: {}", d.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for WorldFailure {}

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, high-quality, dependency-free. Each message's fate is
/// drawn from a fresh stream keyed by `(seed, rank, seq, attempt)` so
/// decisions are independent of timing and thread interleaving.
#[derive(Clone, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform in `[0, n)`; 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Mix several words into one RNG seed (splitmix of the running hash).
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x8A5C_D789_635D_2DFFu64;
    for &w in words {
        h ^= w;
        let mut r = FaultRng::new(h);
        h = r.next_u64();
    }
    h
}

// ---------------------------------------------------------------------------
// Fault configuration and plans
// ---------------------------------------------------------------------------

/// When in a rank's comm-op stream a control fault (stall / kill) fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlSpec {
    /// Rank the fault targets.
    pub rank: usize,
    /// Fires when the rank enters its `at_op`-th send/recv (1-based).
    pub at_op: u64,
}

/// Fault rates and control faults. All rates are probabilities in `[0, 1]`
/// applied independently per transmitted message copy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Message silently dropped in flight.
    pub drop_rate: f64,
    /// Message delivered twice.
    pub duplicate_rate: f64,
    /// Message held back and released after up to `max_delay_slots`
    /// subsequent transmissions from the same sender (reordering).
    pub delay_rate: f64,
    /// Maximum hold-back, in subsequent transmissions (≥ 1 when
    /// `delay_rate > 0`; 0 means a default of 4).
    pub max_delay_slots: u32,
    /// One payload bit flipped in flight — *detectable*: the checksum no
    /// longer matches, so the receiver discards and the sender retransmits.
    pub corrupt_rate: f64,
    /// Silent data corruption: one payload bit flipped *and* the checksum
    /// recomputed, modeling memory/compute errors below the transport.
    /// Only solver-level health guards can catch these.
    pub sdc_rate: f64,
    /// Stall (sleep) this long when the stall control fault fires.
    pub stall: Option<(ControlSpec, Duration)>,
    /// Kill the rank (typed [`CommError::Killed`], surfaced as a rank
    /// failure) when this control fault fires.
    pub kill: Option<ControlSpec>,
}

impl FaultConfig {
    /// A lossy-interconnect profile: drop + reorder + duplicate + corrupt,
    /// all at `rate` (the acceptance runs use `rate = 0.02`).
    pub fn lossy(rate: f64) -> Self {
        FaultConfig {
            drop_rate: rate,
            duplicate_rate: rate,
            delay_rate: rate,
            max_delay_slots: 4,
            corrupt_rate: rate,
            ..Default::default()
        }
    }

    /// Kill `rank` at its `at_op`-th communication operation.
    pub fn kill_rank(rank: usize, at_op: u64) -> Self {
        FaultConfig {
            kill: Some(ControlSpec { rank, at_op }),
            ..Default::default()
        }
    }

    /// Whether any message-level fault can fire (control faults aside).
    pub fn perturbs_messages(&self) -> bool {
        self.drop_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.delay_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.sdc_rate > 0.0
    }
}

/// Retransmission policy of the reliable layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per message (first send included).
    pub max_attempts: u32,
    /// Floor of the wait before the first retransmission, which follows
    /// the peer's measured round trip (`SRTT + 4·RTTVAR`) and doubles per
    /// attempt; also the unit of the delay a reordering fate injects and
    /// of a finishing rank's quiet window.
    pub backoff_base: Duration,
    /// Deadline for a blocking receive under fault injection (a fault-free
    /// world blocks indefinitely, exactly like the pre-fault runtime).
    pub op_timeout: Duration,
    /// How long a finishing rank keeps servicing retransmissions and ACKs
    /// for its peers before its context is torn down.
    pub drain_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 12,
            backoff_base: Duration::from_millis(1),
            op_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(2),
        }
    }
}

/// A fault plan: config + seed (+ retry policy). Hand it to
/// `RankWorld::run_with_faults`; each rank derives its own deterministic
/// [`FaultInjector`] stream from it.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    pub config: FaultConfig,
    pub seed: u64,
    pub retry: RetryPolicy,
}

impl FaultPlan {
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultPlan {
            config,
            seed,
            retry: RetryPolicy::default(),
        }
    }

    /// The injector for `rank`'s outgoing traffic and control faults.
    pub fn injector(&self, rank: usize) -> FaultInjector {
        FaultInjector {
            seed: self.seed,
            rank,
            config: self.config,
            transmissions: 0,
            control_ops: 0,
            stalled: false,
        }
    }

    /// Serialize for handoff to spawned rank processes via an environment
    /// variable. Rates travel as `f64::to_bits` hex so the child's seeded
    /// fate draws are bit-identical to the parent's.
    pub fn to_env_string(&self) -> String {
        let c = &self.config;
        let r = &self.retry;
        let mut s = format!(
            "drop={:x};dup={:x};delay={:x};slots={};corrupt={:x};sdc={:x};seed={};\
             attempts={};backoff_ns={};op_ns={};drain_ns={}",
            c.drop_rate.to_bits(),
            c.duplicate_rate.to_bits(),
            c.delay_rate.to_bits(),
            c.max_delay_slots,
            c.corrupt_rate.to_bits(),
            c.sdc_rate.to_bits(),
            self.seed,
            r.max_attempts,
            r.backoff_base.as_nanos(),
            r.op_timeout.as_nanos(),
            r.drain_timeout.as_nanos(),
        );
        if let Some((spec, d)) = &c.stall {
            s.push_str(&format!(
                ";stall={},{},{}",
                spec.rank,
                spec.at_op,
                d.as_nanos()
            ));
        }
        if let Some(spec) = &c.kill {
            s.push_str(&format!(";kill={},{}", spec.rank, spec.at_op));
        }
        s
    }

    /// Inverse of [`FaultPlan::to_env_string`]. `None` on any malformed
    /// field — callers treat that as "no plan installed".
    pub fn from_env_string(s: &str) -> Option<FaultPlan> {
        let mut plan = FaultPlan::new(FaultConfig::default(), 0);
        for kv in s.split(';') {
            let (k, v) = kv.split_once('=')?;
            let c = &mut plan.config;
            let r = &mut plan.retry;
            match k {
                "drop" => c.drop_rate = f64::from_bits(u64::from_str_radix(v, 16).ok()?),
                "dup" => c.duplicate_rate = f64::from_bits(u64::from_str_radix(v, 16).ok()?),
                "delay" => c.delay_rate = f64::from_bits(u64::from_str_radix(v, 16).ok()?),
                "slots" => c.max_delay_slots = v.parse().ok()?,
                "corrupt" => c.corrupt_rate = f64::from_bits(u64::from_str_radix(v, 16).ok()?),
                "sdc" => c.sdc_rate = f64::from_bits(u64::from_str_radix(v, 16).ok()?),
                "seed" => plan.seed = v.parse().ok()?,
                "attempts" => r.max_attempts = v.parse().ok()?,
                "backoff_ns" => r.backoff_base = Duration::from_nanos(v.parse().ok()?),
                "op_ns" => r.op_timeout = Duration::from_nanos(v.parse().ok()?),
                "drain_ns" => r.drain_timeout = Duration::from_nanos(v.parse().ok()?),
                "stall" => {
                    let mut it = v.split(',');
                    let spec = ControlSpec {
                        rank: it.next()?.parse().ok()?,
                        at_op: it.next()?.parse().ok()?,
                    };
                    let ns: u64 = it.next()?.parse().ok()?;
                    c.stall = Some((spec, Duration::from_nanos(ns)));
                }
                "kill" => {
                    let mut it = v.split(',');
                    c.kill = Some(ControlSpec {
                        rank: it.next()?.parse().ok()?,
                        at_op: it.next()?.parse().ok()?,
                    });
                }
                _ => return None,
            }
        }
        Some(plan)
    }
}

// ---------------------------------------------------------------------------
// Per-message fates
// ---------------------------------------------------------------------------

/// What the injector decided for one transmission of one message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageFate {
    /// Silently dropped.
    pub drop: bool,
    /// Extra delivered copies.
    pub duplicates: u32,
    /// Held back for this many subsequent transmissions (0 = immediate).
    pub delay_slots: u32,
    /// One payload bit flipped, checksum left stale (detectable).
    pub corrupt: bool,
    /// One payload bit flipped, checksum recomputed (silent).
    pub sdc: bool,
    /// Entropy for choosing which bit to flip.
    pub entropy: u64,
}

impl MessageFate {
    /// A clean delivery.
    pub fn clean() -> Self {
        MessageFate::default()
    }
}

/// Control fault decisions at a comm-op boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlFault {
    None,
    /// Sleep this long, once.
    Stall(Duration),
    /// Die with [`CommError::Killed`].
    Kill,
}

/// One rank's deterministic fault stream.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    seed: u64,
    rank: usize,
    config: FaultConfig,
    /// Transmissions attempted by this rank (drives delayed-release order).
    transmissions: u64,
    /// Comm ops (send/recv entries) — drives control faults.
    control_ops: u64,
    stalled: bool,
}

impl FaultInjector {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn config(&self) -> &FaultConfig {
        self.config_ref()
    }

    fn config_ref(&self) -> &FaultConfig {
        &self.config
    }

    /// Transmission counter (monotone; one per [`fate`] call).
    ///
    /// [`fate`]: FaultInjector::fate
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Decide the fate of transmission `attempt` of message `seq`. Pure in
    /// `(seed, rank, seq, attempt)`; advancing the transmission counter is
    /// the only state change.
    pub fn fate(&mut self, seq: u64, attempt: u32) -> MessageFate {
        self.transmissions += 1;
        let c = self.config;
        if !c.perturbs_messages() {
            return MessageFate::clean();
        }
        let mut rng = FaultRng::new(mix(&[
            self.seed,
            self.rank as u64,
            seq,
            attempt as u64,
            0xDA7A,
        ]));
        let drop = rng.chance(c.drop_rate);
        let duplicates = u32::from(rng.chance(c.duplicate_rate));
        let delay_slots = if rng.chance(c.delay_rate) {
            let max = if c.max_delay_slots == 0 {
                4
            } else {
                c.max_delay_slots
            };
            1 + rng.below(max as u64) as u32
        } else {
            0
        };
        let corrupt = rng.chance(c.corrupt_rate);
        let sdc = rng.chance(c.sdc_rate);
        MessageFate {
            drop,
            duplicates,
            delay_slots,
            corrupt,
            sdc,
            entropy: rng.next_u64(),
        }
    }

    /// Whether this ACK transmission is dropped (ACKs share the channel, so
    /// they are as lossy as data — a lost ACK forces a retransmission and a
    /// deduplicated redelivery). Keyed by the *data* message identity
    /// `(src, seq)` plus the re-ACK attempt, so a once-dropped ACK is an
    /// independent draw on every re-ACK rather than dropped forever.
    pub fn ack_dropped(&mut self, src: usize, seq: u64, attempt: u32) -> bool {
        self.transmissions += 1;
        let c = self.config;
        if c.drop_rate <= 0.0 {
            return false;
        }
        let mut rng = FaultRng::new(mix(&[
            self.seed,
            self.rank as u64,
            src as u64,
            seq,
            attempt as u64,
            0xACC,
        ]));
        rng.chance(c.drop_rate)
    }

    /// Called at every send/recv entry; returns the control fault to apply.
    pub fn control(&mut self) -> ControlFault {
        self.control_ops += 1;
        if let Some(spec) = self.config.kill {
            if spec.rank == self.rank && self.control_ops >= spec.at_op {
                return ControlFault::Kill;
            }
        }
        if let Some((spec, dur)) = self.config.stall {
            if spec.rank == self.rank && self.control_ops >= spec.at_op && !self.stalled {
                self.stalled = true;
                return ControlFault::Stall(dur);
            }
        }
        ControlFault::None
    }

    /// Comm ops seen so far (for error attribution).
    pub fn control_ops(&self) -> u64 {
        self.control_ops
    }
}

// ---------------------------------------------------------------------------
// Checksums and bit flips
// ---------------------------------------------------------------------------

/// Word-wise FNV-1a in four independent lanes: each step folds one
/// 64-bit word into one lane with a single multiply, and consecutive
/// words go to different lanes so the multiplies overlap. Both message
/// checksums (the ARQ one below, the frame one in [`crate::frame`]) are
/// built on it.
///
/// Every lane step `h ← (h ^ w) · PRIME` is a bijection in `h` and in
/// `w` (the prime is odd), [`LaneHash::finish`] folds the lanes with the
/// same step and ends in a bijective avalanche — so two inputs of equal
/// length that differ in exactly one word (any single-bit flip) never
/// collide. Multi-word differences collide with probability ~2⁻⁶⁴.
#[derive(Clone, Copy)]
pub(crate) struct LaneHash {
    lanes: [u64; LaneHash::LANES],
}

impl LaneHash {
    pub(crate) const LANES: usize = 4;
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Distinct `domain`s give unrelated checksums over the same words.
    pub(crate) fn new(domain: u64) -> Self {
        let mut lanes = [Self::OFFSET ^ domain; Self::LANES];
        for (i, l) in lanes.iter_mut().enumerate() {
            *l = Self::step(*l, i as u64);
        }
        LaneHash { lanes }
    }

    #[inline]
    fn step(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(Self::PRIME)
    }

    /// Fold a run of words, [`LaneHash::LANES`] at a time; a tail shorter
    /// than that goes to the leading lanes.
    #[inline]
    pub(crate) fn eat_words(&mut self, mut words: impl Iterator<Item = u64>) {
        loop {
            let mut group = [0u64; Self::LANES];
            for i in 0..Self::LANES {
                match words.next() {
                    Some(w) => group[i] = w,
                    None => {
                        for (l, w) in self.lanes.iter_mut().zip(&group[..i]) {
                            *l = Self::step(*l, *w);
                        }
                        return;
                    }
                }
            }
            for (l, w) in self.lanes.iter_mut().zip(group) {
                *l = Self::step(*l, w);
            }
        }
    }

    pub(crate) fn finish(self) -> u64 {
        let mut h = Self::OFFSET;
        for l in self.lanes {
            h = Self::step(h, l);
        }
        // Multiplies only carry upward; spread the top bits back down.
        h ^= h >> 32;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }
}

/// The ARQ message checksum: `LaneHash` over the message identity and
/// the payload bits. Any single-bit flip of any of them is detected.
pub fn checksum(src: usize, tag: u64, seq: u64, payload: &[f64]) -> u64 {
    let mut h = LaneHash::new(0xA59);
    h.eat_words([src as u64, tag, seq, payload.len() as u64].into_iter());
    h.eat_words(payload.iter().map(|v| v.to_bits()));
    h.finish()
}

/// Flip one bit of one payload word, chosen by `entropy`. No-op on an
/// empty payload. Returns the flipped (word, bit) for attribution.
pub fn flip_bit(payload: &mut [f64], entropy: u64) -> Option<(usize, u32)> {
    if payload.is_empty() {
        return None;
    }
    let word = (entropy % payload.len() as u64) as usize;
    let bit = ((entropy >> 32) % 64) as u32;
    payload[word] = f64::from_bits(payload[word].to_bits() ^ (1u64 << bit));
    Some((word, bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spreads() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Different seeds diverge immediately.
        let mut c = FaultRng::new(43);
        assert_ne!(xs[0], c.next_u64());
        // f64 draws stay in [0, 1).
        let mut r = FaultRng::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_rates_are_roughly_honored() {
        let mut r = FaultRng::new(1234);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.chance(0.1)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "empirical rate {rate}");
        // Degenerate rates.
        let mut r = FaultRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn fates_are_pure_in_seed_rank_seq_attempt() {
        let plan = FaultPlan::new(FaultConfig::lossy(0.3), 99);
        let mut a = plan.injector(2);
        let mut b = plan.injector(2);
        // Same (seq, attempt) → same fate, regardless of call order.
        let f1 = a.fate(10, 0);
        let _ = a.fate(11, 0);
        let f2 = a.fate(10, 0);
        assert_eq!(f1, f2);
        let _ = b.fate(5, 1);
        assert_eq!(b.fate(10, 0), f1);
        // Different attempt of the same message redraws independently.
        let retries: Vec<MessageFate> = (0..8).map(|k| a.fate(10, k)).collect();
        assert!(retries.windows(2).any(|w| w[0] != w[1]));
        // Different ranks get different streams.
        let mut c = plan.injector(3);
        let fates_a: Vec<MessageFate> = (0..64).map(|s| a.fate(s, 0)).collect();
        let fates_c: Vec<MessageFate> = (0..64).map(|s| c.fate(s, 0)).collect();
        assert_ne!(fates_a, fates_c);
    }

    #[test]
    fn zero_config_is_always_clean() {
        let plan = FaultPlan::new(FaultConfig::default(), 7);
        let mut inj = plan.injector(0);
        for s in 0..100 {
            assert_eq!(inj.fate(s, 0), MessageFate::clean());
            assert!(!inj.ack_dropped(1, s, 0));
        }
        assert_eq!(inj.control(), ControlFault::None);
    }

    #[test]
    fn lossy_rates_fire_at_configured_frequency() {
        let plan = FaultPlan::new(FaultConfig::lossy(0.1), 2024);
        let mut inj = plan.injector(1);
        let n = 10_000u64;
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        let mut corrupts = 0;
        for s in 0..n {
            let f = inj.fate(s, 0);
            drops += f.drop as u64;
            dups += f.duplicates as u64;
            delays += (f.delay_slots > 0) as u64;
            corrupts += f.corrupt as u64;
            assert!(!f.sdc, "lossy() does not inject SDC");
            assert!(f.delay_slots <= 4);
        }
        for (name, hits) in [
            ("drop", drops),
            ("dup", dups),
            ("delay", delays),
            ("corrupt", corrupts),
        ] {
            let rate = hits as f64 / n as f64;
            assert!((rate - 0.1).abs() < 0.02, "{name} rate {rate}");
        }
    }

    #[test]
    fn ack_drops_redraw_per_attempt() {
        // A dropped ACK must not be dropped on *every* re-ACK of the same
        // message, or retransmission could never converge.
        let plan = FaultPlan::new(FaultConfig::lossy(0.4), 31337);
        let mut inj = plan.injector(0);
        for src in 0..4usize {
            for seq in 0..64u64 {
                if inj.ack_dropped(src, seq, 0) {
                    let survives = (1..32).any(|a| !inj.ack_dropped(src, seq, a));
                    assert!(survives, "ack (src {src}, seq {seq}) dropped forever");
                }
            }
        }
        // Still deterministic per (src, seq, attempt).
        let mut a = plan.injector(2);
        let mut b = plan.injector(2);
        let da: Vec<bool> = (0..128).map(|s| a.ack_dropped(1, s, 3)).collect();
        let db: Vec<bool> = (0..128).map(|s| b.ack_dropped(1, s, 3)).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn control_faults_fire_at_the_configured_op() {
        let cfg = FaultConfig::kill_rank(3, 5);
        let plan = FaultPlan::new(cfg, 0);
        let mut victim = plan.injector(3);
        for _ in 0..4 {
            assert_eq!(victim.control(), ControlFault::None);
        }
        assert_eq!(victim.control(), ControlFault::Kill);
        // And keeps firing (a killed rank stays dead).
        assert_eq!(victim.control(), ControlFault::Kill);
        // Other ranks are unaffected.
        let mut bystander = plan.injector(2);
        for _ in 0..100 {
            assert_eq!(bystander.control(), ControlFault::None);
        }
        // Stalls fire once.
        let scfg = FaultConfig {
            stall: Some((ControlSpec { rank: 0, at_op: 2 }, Duration::from_millis(1))),
            ..Default::default()
        };
        let mut s = FaultPlan::new(scfg, 0).injector(0);
        assert_eq!(s.control(), ControlFault::None);
        assert_eq!(s.control(), ControlFault::Stall(Duration::from_millis(1)));
        assert_eq!(s.control(), ControlFault::None);
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        // Several words per lane plus a tail that leaves lanes uneven.
        let payload: Vec<f64> = (0..4 * LaneHash::LANES + 3)
            .map(|i| (i as f64).sin())
            .collect();
        let h = checksum(1, 7, 42, &payload);
        // Every bit of every identity field matters …
        for bit in 0..64 {
            assert_ne!(
                h,
                checksum(1 ^ (1 << bit), 7, 42, &payload),
                "src bit {bit}"
            );
            assert_ne!(
                h,
                checksum(1, 7 ^ (1 << bit), 42, &payload),
                "tag bit {bit}"
            );
            assert_ne!(
                h,
                checksum(1, 7, 42 ^ (1 << bit), &payload),
                "seq bit {bit}"
            );
        }
        // … and so does every bit of every payload word, and the length.
        for w in 0..payload.len() {
            for bit in 0..64 {
                let mut p = payload.clone();
                p[w] = f64::from_bits(p[w].to_bits() ^ (1u64 << bit));
                assert_ne!(h, checksum(1, 7, 42, &p), "word {w} bit {bit}");
            }
            assert_ne!(h, checksum(1, 7, 42, &payload[..w]), "length {w}");
        }
        // Words that merely swap lanes are told apart too.
        let mut swapped = payload.clone();
        swapped.swap(0, 1);
        assert_ne!(h, checksum(1, 7, 42, &swapped));
    }

    #[test]
    fn flip_bit_changes_exactly_one_word() {
        let mut p: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
        let orig = p.clone();
        let (w, _bit) = flip_bit(&mut p, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        let changed: Vec<usize> = (0..p.len())
            .filter(|&i| p[i].to_bits() != orig[i].to_bits())
            .collect();
        assert_eq!(changed, vec![w]);
        // Empty payloads are a no-op.
        assert_eq!(flip_bit(&mut [], 123), None);
    }

    #[test]
    fn world_failure_reports_every_rank() {
        let wf = WorldFailure {
            nranks: 8,
            failures: vec![
                RankFailure {
                    rank: 2,
                    message: "killed by fault injection".into(),
                },
                RankFailure {
                    rank: 5,
                    message: "timed out".into(),
                },
            ],
            flight_dump: Some(std::path::PathBuf::from("results/flightdump_42")),
        };
        assert_eq!(wf.ranks(), vec![2, 5]);
        let text = wf.to_string();
        assert!(text.contains("2 of 8 ranks failed"));
        assert!(text.contains("rank 2: killed"));
        assert!(text.contains("rank 5: timed out"));
        assert!(text.contains("flight recorder dump: results/flightdump_42"));
    }

    #[test]
    fn comm_error_display_is_informative() {
        let e = CommError::RetriesExhausted {
            to: 3,
            tag: 77,
            seq: 9,
            attempts: 12,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3") && s.contains("12 attempts"));
        assert!(CommError::Killed { rank: 1, at_op: 4 }
            .to_string()
            .contains("fault injection"));
    }
}
