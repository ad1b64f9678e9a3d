//! Host-side gang execution, plus the Tier-2 sanitizer.
//!
//! OpenACC semantics on the simulated device; *numerics* on the host. A
//! compute construct's gang dimension maps to the persistent host worker
//! pool of `exec-host`, each gang executing the kernel body over a
//! disjoint z-slab — identical results to the sequential sweep, so the
//! simulation produces real wavefields while the clock runs on the model.
//! [`par_slabs`] is `exec_host::par_slabs`, re-exported here; the
//! propagators' step sequences launch through it from `seismic-prop`.
//!
//! The sanitizer half of this module ([`par_slabs_logged`] /
//! [`replay_access_set`]) is the dynamic tier of `acc-verify`: every gang
//! records the elements it touches into a shadow log during real host
//! execution on a small grid, and [`ShadowLog::conflicts`] reports any
//! element written by one iteration and touched by another — confirming
//! or refuting a static `independent`-race verdict with an actual witness.

use crate::access::AccessSet;
use exec_host::GangPool;
use std::collections::HashMap;

pub use exec_host::par_slabs;

/// Upper bound on the gang count — matches the paper's launch
/// configurations and keeps slab overhead bounded on small grids.
pub const MAX_GANGS: usize = 16;

/// A rejected `ACC_GANGS` environment value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GangEnvError {
    /// The raw value that was rejected.
    pub value: String,
    /// Why it was rejected.
    pub reason: GangEnvErrorKind,
}

/// The ways an `ACC_GANGS` value can be invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GangEnvErrorKind {
    /// Not a base-10 unsigned integer.
    NotANumber,
    /// Parsed, but outside `1..=MAX_GANGS`.
    OutOfRange,
}

impl std::fmt::Display for GangEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            GangEnvErrorKind::NotANumber => {
                write!(f, "ACC_GANGS={:?} is not an unsigned integer", self.value)
            }
            GangEnvErrorKind::OutOfRange => write!(
                f,
                "ACC_GANGS={:?} is outside the supported range 1..={MAX_GANGS}",
                self.value
            ),
        }
    }
}

impl std::error::Error for GangEnvError {}

/// Parse an `ACC_GANGS` value: a base-10 integer in `1..=`[`MAX_GANGS`].
pub fn parse_gangs(raw: &str) -> Result<usize, GangEnvError> {
    let n: usize = raw.trim().parse().map_err(|_| GangEnvError {
        value: raw.to_string(),
        reason: GangEnvErrorKind::NotANumber,
    })?;
    if (1..=MAX_GANGS).contains(&n) {
        Ok(n)
    } else {
        Err(GangEnvError {
            value: raw.to_string(),
            reason: GangEnvErrorKind::OutOfRange,
        })
    }
}

/// Gang count from the environment or the hardware: an `ACC_GANGS` env var
/// wins when set (garbage is a typed [`GangEnvError`], never silently
/// ignored); otherwise one gang per available core, clamped to
/// `1..=`[`MAX_GANGS`].
pub fn try_default_gangs() -> Result<usize, GangEnvError> {
    match std::env::var("ACC_GANGS") {
        Ok(raw) => parse_gangs(&raw),
        Err(_) => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, MAX_GANGS)),
    }
}

/// One recorded memory event: iteration `iter` touched element `elem` of
/// the array with local id `array` (resolved through [`GangLog::names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AccessEvent {
    iter: u64,
    array: u16,
    elem: i64,
    write: bool,
}

/// The shadow log one gang fills while executing its slab.
#[derive(Debug, Default)]
pub struct GangLog {
    names: Vec<String>,
    events: Vec<AccessEvent>,
}

impl GangLog {
    fn array_id(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    /// Record a read of `array[elem]` by iteration `iter`.
    pub fn read(&mut self, array: &str, elem: i64, iter: u64) {
        self.record(array, elem, iter, false);
    }

    /// Record a write of `array[elem]` by iteration `iter`.
    pub fn write(&mut self, array: &str, elem: i64, iter: u64) {
        self.record(array, elem, iter, true);
    }

    fn record(&mut self, array: &str, elem: i64, iter: u64, write: bool) {
        let array = self.array_id(array);
        self.events.push(AccessEvent {
            iter,
            array,
            elem,
            write,
        });
    }
}

/// A cross-iteration conflict witnessed during sanitized execution: two
/// distinct iterations touched the same element with at least one write —
/// exactly what a true `independent` clause rules out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementConflict {
    /// Array touched.
    pub array: String,
    /// Conflicting element index.
    pub elem: i64,
    /// The iteration that wrote it.
    pub write_iter: u64,
    /// Another iteration that read or wrote the same element.
    pub other_iter: u64,
    /// True when both accesses were writes (WAW rather than RAW/WAR).
    pub write_write: bool,
}

/// The inclusive write interval one gang produced on one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GangWriteInterval {
    /// Gang index.
    pub gang: usize,
    /// Array written.
    pub array: String,
    /// Lowest element written.
    pub lo: i64,
    /// Highest element written.
    pub hi: i64,
}

/// The merged shadow logs of one sanitized execution.
#[derive(Debug, Default)]
pub struct ShadowLog {
    per_gang: Vec<GangLog>,
}

impl ShadowLog {
    /// Per-gang inclusive write intervals, one entry per (gang, array) with
    /// at least one write — the coarse summary used to cross-check slab
    /// ownership (disjoint intervals ⇒ no inter-gang WAW).
    pub fn gang_write_intervals(&self) -> Vec<GangWriteInterval> {
        let mut out = Vec::new();
        for (g, log) in self.per_gang.iter().enumerate() {
            let mut ranges: HashMap<u16, (i64, i64)> = HashMap::new();
            for e in log.events.iter().filter(|e| e.write) {
                let r = ranges.entry(e.array).or_insert((e.elem, e.elem));
                r.0 = r.0.min(e.elem);
                r.1 = r.1.max(e.elem);
            }
            let mut rs: Vec<_> = ranges.into_iter().collect();
            rs.sort_unstable_by_key(|(id, _)| *id);
            for (id, (lo, hi)) in rs {
                out.push(GangWriteInterval {
                    gang: g,
                    array: log.names[id as usize].clone(),
                    lo,
                    hi,
                });
            }
        }
        out
    }

    /// Every cross-iteration element conflict in the merged logs, sorted by
    /// (array, element). Empty ⇔ the executed pattern really was
    /// `independent`.
    pub fn conflicts(&self) -> Vec<ElementConflict> {
        // element -> (a write iter if any, an iter touching it, any second
        // distinct iter with a write involved)
        let mut writes: HashMap<(&str, i64), u64> = HashMap::new();
        let mut touches: HashMap<(&str, i64), u64> = HashMap::new();
        let mut out = Vec::new();
        let all = self.per_gang.iter().flat_map(|log| {
            log.events
                .iter()
                .map(move |e| (log.names[e.array as usize].as_str(), e))
        });
        for (name, e) in all.clone() {
            if e.write {
                writes.entry((name, e.elem)).or_insert(e.iter);
            }
            touches.entry((name, e.elem)).or_insert(e.iter);
        }
        let mut seen: HashMap<(&str, i64), bool> = HashMap::new();
        for (name, e) in all {
            let Some(&w) = writes.get(&(name, e.elem)) else {
                continue;
            };
            if e.iter != w && !seen.contains_key(&(name, e.elem)) {
                seen.insert((name, e.elem), true);
                out.push(ElementConflict {
                    array: name.to_string(),
                    elem: e.elem,
                    write_iter: w,
                    other_iter: e.iter,
                    write_write: e.write,
                });
            }
        }
        out.sort_unstable_by(|a, b| (&a.array, a.elem).cmp(&(&b.array, b.elem)));
        out
    }

    /// True when no conflict was witnessed.
    pub fn clean(&self) -> bool {
        self.conflicts().is_empty()
    }
}

/// [`par_slabs`] with shadow logging: each gang additionally receives its
/// own [`GangLog`]. Returns the merged log.
pub fn par_slabs_logged<F>(n: usize, gangs: usize, body: F) -> ShadowLog
where
    F: Fn(usize, usize, &mut GangLog) + Sync,
{
    assert!(gangs > 0, "need at least one gang");
    if n == 0 {
        return ShadowLog::default();
    }
    let gangs = gangs.min(n);
    // Each gang index is executed exactly once per launch, so each mutex is
    // uncontended; it only exists to hand the pool a `Sync` body.
    let logs: Vec<std::sync::Mutex<GangLog>> = (0..gangs)
        .map(|_| std::sync::Mutex::new(GangLog::default()))
        .collect();
    let t_sweep = exec_host::prof::begin();
    GangPool::global().run(n, gangs, &|g, z0, z1| {
        let mut log = logs[g].lock().expect("gang log poisoned");
        body(z0, z1, &mut log);
    });
    exec_host::prof::end(
        t_sweep,
        exec_host::prof::EventKind::Sweep,
        gangs as u32,
        n.min(u32::MAX as usize) as u32,
    );
    ShadowLog {
        per_gang: logs
            .into_iter()
            .map(|m| m.into_inner().expect("gang log poisoned"))
            .collect(),
    }
}

/// Execute a declared [`AccessSet`] for real through the gang engine with
/// the sanitizer on: iteration `i` performs exactly the reads and writes
/// the descriptor claims, and the shadow log says whether any two
/// iterations actually collided. This is how Tier 2 confirms or refutes a
/// static race verdict on a small grid.
pub fn replay_access_set(access: &AccessSet, gangs: usize) -> ShadowLog {
    par_slabs_logged(access.trip as usize, gangs.max(1), |z0, z1, log| {
        for i in z0..z1 {
            let i = i as u64;
            for r in &access.reads {
                log.read(&r.array, r.at(i), i);
            }
            for w in &access.writes {
                log.write(&w.array, w.at(i), i);
            }
        }
    })
}

/// A conflict between two lanes of the *same* SIMD chunk witnessed during
/// lane replay: both iterations would execute simultaneously in one vector
/// instruction, so an element shared with a write involved makes the
/// `vector(width)` mapping illegal. Cross-chunk sharing is fine — chunks
/// retire in iteration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneConflict {
    /// Array touched.
    pub array: String,
    /// Conflicting element index.
    pub elem: i64,
    /// Chunk (vector-instruction index) both lanes belong to.
    pub chunk: u64,
    /// Iteration performing the write.
    pub write_iter: u64,
    /// Distinct iteration in the same chunk touching the same element.
    pub other_iter: u64,
    /// True when both lane accesses were writes.
    pub write_write: bool,
}

/// What the lane replay measured about one declared access stream, from
/// the addresses it actually touched (not from the descriptor fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedLaneAccess {
    /// Array touched.
    pub array: String,
    /// True for the write stream.
    pub write: bool,
    /// Element lane 0 of chunk 0 touched.
    pub first_elem: i64,
    /// Constant element delta between adjacent lanes, when every adjacent
    /// pair in every replayed chunk agreed; `None` means the stream is not
    /// an arithmetic lane progression (a gather).
    pub lane_delta: Option<i64>,
    /// `first_elem mod width` — the alignment residue of the stream base.
    pub residue: i64,
}

/// The record of one lane-granularity replay: the declared access set
/// executed in `width`-wide chunks, sequentially chunk by chunk, with
/// every intra-chunk element collision logged.
#[derive(Debug, Clone, Default)]
pub struct LaneReplay {
    /// Lane width replayed at.
    pub width: u32,
    /// Iterations replayed.
    pub trip: u64,
    /// Intra-chunk conflicts (empty ⇔ the mapping is lane-safe).
    pub conflicts: Vec<LaneConflict>,
    /// Per-stream stride/alignment measurements.
    pub observed: Vec<ObservedLaneAccess>,
}

impl LaneReplay {
    /// True when no two lanes of any chunk collided — the dynamic analogue
    /// of "minimum carried dependence distance ≥ width".
    pub fn lane_safe(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// True when every stream advanced by exactly ±1 element per lane
    /// (stride-0 broadcast reads are allowed — they don't consume
    /// bandwidth per lane).
    pub fn unit_stride(&self) -> bool {
        self.observed
            .iter()
            .all(|o| matches!(o.lane_delta, Some(-1..=1)))
    }

    /// The alignment residue of each written stream's base, one entry per
    /// write in declaration order.
    pub fn write_residues(&self) -> Vec<(String, i64)> {
        self.observed
            .iter()
            .filter(|o| o.write)
            .map(|o| (o.array.clone(), o.residue))
            .collect()
    }
}

/// Replay a declared [`AccessSet`] through `width`-wide SIMD chunks:
/// chunk `c` executes iterations `[c·width, (c+1)·width)` as simultaneous
/// lanes, chunks retire strictly in order. Any element touched by two
/// distinct lanes of the *same* chunk with a write involved is recorded as
/// a [`LaneConflict`]. Declared reduction cells replay lane-private (each
/// lane owns a partial, combined after the loop) and are exempt.
///
/// This is the dynamic tier of the vectorization verifier: the static
/// claim "no carried dependence shorter than `width`" must be equivalent
/// to this replay finding no conflict, on the same trip count.
pub fn replay_lanes(access: &AccessSet, width: u32) -> LaneReplay {
    assert!(width >= 1, "lane width must be positive");
    let w = width as u64;
    let trip = access.trip;
    let mut conflicts = Vec::new();
    // (array id, elem) -> (iter, wrote) for the current chunk only.
    let mut chunk_map: HashMap<(usize, i64), (u64, bool)> = HashMap::new();
    let names: Vec<&str> = access
        .writes
        .iter()
        .chain(access.reads.iter())
        .map(|a| a.array.as_str())
        .collect();
    let streams: Vec<(&crate::access::AffineAccess, bool)> = access
        .writes
        .iter()
        .map(|a| (a, true))
        .chain(access.reads.iter().map(|a| (a, false)))
        .collect();
    let mut chunk = 0u64;
    let mut i = 0u64;
    while i < trip {
        let end = (i + w).min(trip);
        chunk_map.clear();
        for iter in i..end {
            for (sid, (a, write)) in streams.iter().enumerate() {
                let elem = a.at(iter);
                match chunk_map.get_mut(&(sid_array(&names, sid), elem)) {
                    Some((prev, wrote)) => {
                        let pw = *wrote;
                        if *prev != iter && (pw || *write) {
                            let (wi, oi, ww) = if *write {
                                (iter, *prev, pw)
                            } else {
                                (*prev, iter, false)
                            };
                            conflicts.push(LaneConflict {
                                array: a.array.clone(),
                                elem,
                                chunk,
                                write_iter: wi,
                                other_iter: oi,
                                write_write: ww,
                            });
                        }
                        *wrote = pw || *write;
                    }
                    None => {
                        chunk_map.insert((sid_array(&names, sid), elem), (iter, *write));
                    }
                }
            }
        }
        chunk += 1;
        i = end;
    }
    conflicts
        .sort_unstable_by(|a, b| (a.chunk, &a.array, a.elem).cmp(&(b.chunk, &b.array, b.elem)));
    conflicts.dedup();

    // Measure each stream's lane progression from the replayed addresses.
    let mut observed = Vec::with_capacity(streams.len());
    for (a, write) in &streams {
        let first_elem = a.at(0);
        let mut lane_delta = None;
        let mut consistent = true;
        let mut i = 0u64;
        while i < trip && consistent {
            let end = (i + w).min(trip);
            for iter in i + 1..end {
                let d = a.at(iter) - a.at(iter - 1);
                match lane_delta {
                    None => lane_delta = Some(d),
                    Some(prev) if prev != d => {
                        consistent = false;
                        break;
                    }
                    Some(_) => {}
                }
            }
            i = end;
        }
        observed.push(ObservedLaneAccess {
            array: a.array.clone(),
            write: *write,
            first_elem,
            lane_delta: if consistent { lane_delta } else { None },
            residue: first_elem.rem_euclid(w as i64),
        });
    }
    LaneReplay {
        width,
        trip,
        conflicts,
        observed,
    }
}

/// Canonical array key for the chunk map: index of the first stream naming
/// this array, so streams over the same array share a key.
fn sid_array(names: &[&str], sid: usize) -> usize {
    let name = names[sid];
    names.iter().position(|n| *n == name).unwrap_or(sid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_range_exactly_once() {
        let n = 103;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_slabs(n, 7, |z0, z1| {
            for h in &hits[z0..z1] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn single_gang_and_empty_range() {
        let count = AtomicUsize::new(0);
        par_slabs(10, 1, |z0, z1| {
            assert_eq!((z0, z1), (0, 10));
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
        par_slabs(0, 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn more_gangs_than_rows_clamps() {
        let count = AtomicUsize::new(0);
        par_slabs(3, 16, |z0, z1| {
            assert_eq!(z1 - z0, 1);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn parse_gangs_accepts_valid_values() {
        assert_eq!(parse_gangs("1"), Ok(1));
        assert_eq!(parse_gangs("8"), Ok(8));
        assert_eq!(parse_gangs(" 16 "), Ok(16));
    }

    #[test]
    fn parse_gangs_rejects_garbage_with_typed_error() {
        for raw in ["", "zero", "4.5", "-2", "0x8"] {
            let err = parse_gangs(raw).unwrap_err();
            assert_eq!(err.value, raw);
            assert_eq!(err.reason, GangEnvErrorKind::NotANumber);
            assert!(err.to_string().contains("not an unsigned integer"));
        }
        for raw in ["0", "17", "4096"] {
            let err = parse_gangs(raw).unwrap_err();
            assert_eq!(err.reason, GangEnvErrorKind::OutOfRange);
            assert!(err.to_string().contains("1..=16"));
        }
    }

    /// `ACC_GANGS` overrides the hardware-derived default, which is in
    /// `1..=MAX_GANGS`. The test only ever sets in-range values, so a
    /// concurrent test resolving the default keeps passing whatever
    /// interleaving the runner picks.
    #[test]
    fn acc_gangs_env_overrides_default() {
        std::env::set_var("ACC_GANGS", "7");
        let got = try_default_gangs();
        std::env::remove_var("ACC_GANGS");
        assert_eq!(got, Ok(7));
        let hw = try_default_gangs().expect("unset env must use hardware");
        assert!((1..=MAX_GANGS).contains(&hw));
    }

    /// An out-of-place stencil replays clean: no element is written by one
    /// iteration and touched by another.
    #[test]
    fn sanitizer_confirms_independent_stencil() {
        let acc = AccessSet::stencil(64, "fields", 1000, 0, 4, 8);
        let log = replay_access_set(&acc, 4);
        assert!(log.clean(), "conflicts: {:?}", log.conflicts());
        // Gang write intervals are disjoint and ordered.
        let iv = log.gang_write_intervals();
        assert_eq!(iv.len(), 4);
        for w in iv.windows(2) {
            assert!(w[0].hi < w[1].lo, "gang slabs must not overlap");
        }
    }

    /// The in-place mutation is caught with a concrete witness pair.
    #[test]
    fn sanitizer_catches_inplace_stencil() {
        let acc = AccessSet::stencil_inplace(64, "u", 0, 2, 8);
        let log = replay_access_set(&acc, 4);
        let conflicts = log.conflicts();
        assert!(!conflicts.is_empty());
        let c = &conflicts[0];
        assert_eq!(c.array, "u");
        assert_ne!(c.write_iter, c.other_iter);
        // The witness element really is produced by both iterations.
        let hits = |iter: u64| {
            acc.reads
                .iter()
                .chain(acc.writes.iter())
                .any(|a| a.at(iter) == c.elem)
        };
        assert!(hits(c.write_iter) && hits(c.other_iter));
    }

    /// Two iterations writing the same element (stride 0) is a WAW
    /// conflict even with no reads at all.
    #[test]
    fn sanitizer_flags_waw() {
        let acc = AccessSet::new(16).write("img", 7, 0);
        let conflicts = replay_access_set(&acc, 3).conflicts();
        assert_eq!(conflicts.len(), 1);
        assert!(conflicts[0].write_write);
        assert_eq!(conflicts[0].elem, 7);
    }

    /// Logged execution records every access: a body whose iterations
    /// overlap shows the overlap.
    #[test]
    fn sanitize_flag_gates_logging() {
        let log = par_slabs_logged(32, 4, |z0, z1, l| {
            for i in z0..z1 {
                l.write("u", i as i64, i as u64);
                l.read("u", i as i64 + 1, i as u64);
            }
        });
        assert!(!log.conflicts().is_empty());
    }

    #[test]
    fn empty_replay_is_clean() {
        let acc = AccessSet::new(0).write("u", 0, 1);
        let log = replay_access_set(&acc, 4);
        assert!(log.clean());
    }

    /// An out-of-place stencil has no carried dependence at all: every
    /// chunk's lanes touch distinct elements, any width.
    #[test]
    fn lanes_clean_on_out_of_place_stencil() {
        let acc = AccessSet::stencil(64, "fields", 10_000, 0, 4, 8);
        for width in [2u32, 4, 8] {
            let r = replay_lanes(&acc, width);
            assert!(r.lane_safe(), "width {width}: {:?}", r.conflicts);
            assert!(r.unit_stride());
        }
    }

    /// A distance-1 recurrence (write u[i], read u[i-1]) collides inside
    /// every chunk at width ≥ 2 but is trivially safe at width 1.
    #[test]
    fn lanes_catch_distance_one_recurrence() {
        let acc = AccessSet::new(64).write("u", 0, 1).read("u", -1, 1);
        assert!(replay_lanes(&acc, 1).lane_safe());
        for width in [2u32, 4, 8] {
            let r = replay_lanes(&acc, width);
            assert!(!r.lane_safe(), "width {width} must conflict");
            let c = &r.conflicts[0];
            assert_eq!(c.other_iter, c.write_iter + 1);
            assert_eq!(c.write_iter / width as u64, c.other_iter / width as u64);
        }
    }

    /// A distance-4 dependence is lane-safe at widths ≤ 4 and illegal at 8:
    /// the dynamic tier resolves the exact legality threshold.
    #[test]
    fn lanes_resolve_distance_threshold() {
        let acc = AccessSet::new(64).write("u", 0, 1).read("u", -4, 1);
        assert!(replay_lanes(&acc, 2).lane_safe());
        assert!(replay_lanes(&acc, 4).lane_safe());
        assert!(!replay_lanes(&acc, 8).lane_safe());
    }

    /// Declared reductions replay lane-private: a stride-0 Sum cell is not
    /// a lane conflict, but the same cell as a plain write is.
    #[test]
    fn lanes_exempt_declared_reductions() {
        use crate::access::ReduceOp;
        let reduced = AccessSet::new(64)
            .read("u", 0, 1)
            .reduce("qc", 0, ReduceOp::Sum);
        assert!(replay_lanes(&reduced, 8).lane_safe());
        let raced = AccessSet::new(64).read("u", 0, 1).write("qc", 0, 0);
        assert!(!replay_lanes(&raced, 8).lane_safe());
    }

    /// Observed lane measurements come from replayed addresses: deltas,
    /// base elements, and alignment residues.
    #[test]
    fn lanes_measure_stride_and_residue() {
        let acc = AccessSet::new(64)
            .write("u", 3, 1)
            .read("u", -8, 1)
            .read("r", 1, 7)
            .read("c", 5, 0);
        let r = replay_lanes(&acc, 8);
        assert_eq!(r.observed.len(), 4);
        let w = &r.observed[0];
        assert!(w.write);
        assert_eq!(w.first_elem, 3);
        assert_eq!(w.lane_delta, Some(1));
        assert_eq!(w.residue, 3);
        assert_eq!(r.observed[1].residue, 0); // -8 mod 8
        assert_eq!(r.observed[2].lane_delta, Some(7));
        assert_eq!(r.observed[3].lane_delta, Some(0));
        assert!(!r.unit_stride()); // the stride-7 stream
        assert_eq!(r.write_residues(), vec![("u".to_string(), 3)]);
    }
}
