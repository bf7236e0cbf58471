//! The solver's one checkpoint type, [`SolverCheckpoint`], and its durable
//! per-cycle store for elastic multi-process solves.
//!
//! [`crate::RecoveryPolicy::Rollback`] holds its best checkpoint in memory;
//! under [`crate::RecoveryPolicy::Rejoin`] every rank writes its finest-level
//! solver state to disk after each completed V-cycle. When the membership
//! controller detects a dead rank it respawns the process, parks the
//! survivors, and resumes the whole world from the *minimum* cycle any rank
//! reported — which is loadable everywhere because checkpoints are kept for
//! every cycle, never pruned. Restoring the full finest-level storage
//! (owned cells *and* the ghost shell), the communication-avoiding margin,
//! and the exchange tag counter makes the resumed run bit-identical to an
//! unfaulted one: the same exchanges happen with the same tags on the same
//! data.
//!
//! The on-disk format is a flat little-endian record with a magic header
//! and an FNV-1a trailer; a torn or corrupt file (the dying rank may have
//! been mid-write) loads as `None` and the scan falls back to the newest
//! *valid* cycle.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File magic: "GMGCKPT1".
const MAGIC: [u8; 8] = *b"GMGCKPT1";

/// Everything the solve loop needs to resume mid-history, bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverCheckpoint {
    /// Completed V-cycles at the time of the snapshot (`history` has
    /// `cycle + 1` entries: the initial residual plus one per cycle).
    pub cycle: u64,
    /// The solver's exchange tag counter after this cycle's convergence
    /// check. All ranks restore the same value, keeping tag allocation in
    /// lockstep with the unfaulted schedule.
    pub tag_counter: u64,
    /// Communication-avoiding ghost margin of the finest level.
    pub margin: i64,
    /// Residual max-norm history (index 0 = initial residual).
    pub history: Vec<f64>,
    /// The finest level's full `x` storage — owned cells and ghost shell —
    /// exactly as bricked in memory.
    pub x: Vec<f64>,
}

impl SolverCheckpoint {
    /// The residual max-norm of the checkpointed iterate.
    pub(crate) fn residual(&self) -> f64 {
        *self.history.last().expect("history non-empty")
    }
}

/// One rank's checkpoint directory handle.
pub struct RejoinStore {
    dir: PathBuf,
    rank: usize,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u64(buf, vs.len() as u64);
    for v in vs {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let b = self.buf.get(self.at..end)?;
        self.at = end;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        // Collected from bytes the record holds: a length field claiming
        // more than is left fails before anything is allocated.
        let n = usize::try_from(self.u64()?).ok()?.checked_mul(8)?;
        let to_f64 = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte chunks"));
        Some(self.bytes(n)?.chunks_exact(8).map(to_f64).collect())
    }
}

impl RejoinStore {
    /// Open (creating if needed) the store for `rank` under `dir` — the
    /// world-shared checkpoint directory the membership controller hands
    /// out.
    pub fn new(dir: &Path, rank: usize) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            rank,
        })
    }

    fn path(&self, cycle: u64) -> PathBuf {
        self.dir.join(format!("r{}_c{}.gmgck", self.rank, cycle))
    }

    /// Persist one cycle's snapshot atomically (write-to-temp + rename),
    /// so a SIGKILL mid-write can never leave a half-written file under
    /// the final name.
    pub fn save(&self, ck: &SolverCheckpoint) -> io::Result<()> {
        let mut buf = Vec::with_capacity(64 + 8 * (ck.history.len() + ck.x.len()));
        buf.extend_from_slice(&MAGIC);
        put_u64(&mut buf, self.rank as u64);
        put_u64(&mut buf, ck.cycle);
        put_u64(&mut buf, ck.tag_counter);
        put_u64(&mut buf, ck.margin as u64);
        put_f64s(&mut buf, &ck.history);
        put_f64s(&mut buf, &ck.x);
        let sum = fnv1a(&buf);
        put_u64(&mut buf, sum);
        let p = self.path(ck.cycle);
        let tmp = p.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&buf)?;
        }
        fs::rename(&tmp, &p)
    }

    /// Load the snapshot for `cycle`. Any defect — missing file, bad
    /// magic, short read, checksum mismatch, rank/cycle disagreement —
    /// yields `None`, never a panic: the caller treats an unreadable
    /// checkpoint like one that was never written.
    pub fn load(&self, cycle: u64) -> Option<SolverCheckpoint> {
        let mut buf = Vec::new();
        fs::File::open(self.path(cycle))
            .ok()?
            .read_to_end(&mut buf)
            .ok()?;
        if buf.len() < MAGIC.len() + 8 || buf[..MAGIC.len()] != MAGIC {
            return None;
        }
        let body_len = buf.len() - 8;
        let stored = u64::from_le_bytes(buf[body_len..].try_into().ok()?);
        if fnv1a(&buf[..body_len]) != stored {
            return None;
        }
        let mut r = Reader {
            buf: &buf[..body_len],
            at: MAGIC.len(),
        };
        let rank = r.u64()?;
        let cy = r.u64()?;
        if rank != self.rank as u64 || cy != cycle {
            return None;
        }
        let tag_counter = r.u64()?;
        let margin = r.u64()? as i64;
        let history = r.f64s()?;
        let x = r.f64s()?;
        if r.at != body_len || history.len() != cycle as usize + 1 {
            return None;
        }
        Some(SolverCheckpoint {
            cycle,
            tag_counter,
            margin,
            history,
            x,
        })
    }

    /// The newest cycle this rank can actually restore (`-1` when none):
    /// scans the directory and *validates* the candidate, so a torn
    /// newest file falls back to the one before it.
    pub fn latest_cycle(&self) -> i64 {
        let prefix = format!("r{}_c", self.rank);
        let mut cycles: Vec<u64> = Vec::new();
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for e in rd.flatten() {
                if let Some(c) = e.file_name().to_str().and_then(|n| {
                    n.strip_prefix(&prefix)?
                        .strip_suffix(".gmgck")?
                        .parse()
                        .ok()
                }) {
                    cycles.push(c);
                }
            }
        }
        cycles.sort_unstable_by(|a, b| b.cmp(a));
        for c in cycles {
            if self.load(c).is_some() {
                return c as i64;
            }
        }
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gmg-rejoin-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample(cycle: u64) -> SolverCheckpoint {
        SolverCheckpoint {
            cycle,
            tag_counter: 12345,
            margin: -3,
            history: (0..=cycle).map(|i| 1.0 / (i as f64 + 1.5)).collect(),
            x: vec![0.0, -0.0, 1.5e-308, f64::MAX, 42.25, f64::MIN_POSITIVE],
        }
    }

    #[test]
    fn roundtrips_bit_exactly_including_signed_zero_and_subnormals() {
        let d = tmpdir("rt");
        let st = RejoinStore::new(&d, 2).unwrap();
        let ck = sample(3);
        st.save(&ck).unwrap();
        let back = st.load(3).expect("load");
        assert_eq!(back.cycle, 3);
        assert_eq!(back.tag_counter, 12345);
        assert_eq!(back.margin, -3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.history), bits(&ck.history));
        assert_eq!(bits(&back.x), bits(&ck.x));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn corruption_and_truncation_load_as_none_never_panic() {
        let d = tmpdir("corrupt");
        let st = RejoinStore::new(&d, 0).unwrap();
        st.save(&sample(1)).unwrap();
        let p = d.join("r0_c1.gmgck");
        let orig = fs::read(&p).unwrap();
        // Flip one payload byte.
        let mut bad = orig.clone();
        bad[20] ^= 0x40;
        fs::write(&p, &bad).unwrap();
        assert!(st.load(1).is_none(), "bit flip must fail the checksum");
        // Truncate mid-record.
        fs::write(&p, &orig[..orig.len() / 2]).unwrap();
        assert!(st.load(1).is_none(), "truncation must fail");
        // Wrong magic.
        let mut nomagic = orig.clone();
        nomagic[0] = b'X';
        fs::write(&p, &nomagic).unwrap();
        assert!(st.load(1).is_none(), "magic mismatch must fail");
        // Restored intact, it loads again.
        fs::write(&p, &orig).unwrap();
        assert!(st.load(1).is_some());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn latest_cycle_skips_torn_newest_file() {
        let d = tmpdir("latest");
        let st = RejoinStore::new(&d, 1).unwrap();
        assert_eq!(st.latest_cycle(), -1);
        for c in 0..4 {
            st.save(&sample(c)).unwrap();
        }
        assert_eq!(st.latest_cycle(), 3);
        // Tear the newest: the scan must fall back to cycle 2.
        let p = d.join("r1_c3.gmgck");
        let orig = fs::read(&p).unwrap();
        fs::write(&p, &orig[..10]).unwrap();
        assert_eq!(st.latest_cycle(), 2);
        // Another rank's files are invisible to this store.
        let other = RejoinStore::new(&d, 7).unwrap();
        assert_eq!(other.latest_cycle(), -1);
        let _ = fs::remove_dir_all(&d);
    }
}
