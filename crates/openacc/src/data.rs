//! The device data environment.
//!
//! Implements the OpenACC 2.0 structured/unstructured data directives the
//! paper's Section 5.4 relies on: `ENTER DATA COPYIN` / `EXIT DATA DELETE`
//! for persistence across kernel launches, `UPDATE HOST` / `UPDATE DEVICE`
//! for explicit refreshes, `CREATE` for device-only scratch (the Figure 13
//! transposition temporaries), and the `PRESENT` check every kernel uses.

use accel_sim::memory::DeviceBuffer;
use accel_sim::pcie::{transfer_time, HostAlloc, TransferKind};
use accel_sim::{DeviceMemory, DeviceSpec, EventKind, OutOfMemory, Profiler, SimTime};
use std::collections::{HashMap, HashSet};

/// Errors from data-environment operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// Allocation exceeded device memory.
    Oom(OutOfMemory),
    /// `present` check failed — the variable was never mapped (the runtime
    /// error OpenACC raises when a kernel touches unmapped data).
    NotPresent(String),
    /// Double mapping of the same name.
    AlreadyPresent(String),
    /// `exit data delete` on a variable that was *already deleted* — the
    /// double-free of the directive world, distinguished from
    /// [`DataError::NotPresent`] (never mapped at all) so callers can tell
    /// a stale directive sequence from a typo'd name.
    AlreadyDeleted(String),
    /// The host read a variable whose last write happened on the device
    /// with no `update host` in between — the wrong-answer hazard the
    /// paper's Section 5.4 consistency updates exist to prevent.
    StaleHostRead(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Oom(e) => write!(f, "{e}"),
            DataError::NotPresent(n) => write!(f, "variable '{n}' not present on device"),
            DataError::AlreadyPresent(n) => write!(f, "variable '{n}' already present on device"),
            DataError::AlreadyDeleted(n) => {
                write!(f, "variable '{n}' already deleted from the device")
            }
            DataError::StaleHostRead(n) => write!(
                f,
                "host read of '{n}' whose last write was on the device (missing `update host`)"
            ),
        }
    }
}

impl std::error::Error for DataError {}

struct Mapping {
    #[allow(dead_code)] // held for its Drop (frees device bytes)
    buffer: DeviceBuffer,
    bytes: u64,
    /// Device copy holds writes the host has not seen (`update host` clears).
    device_dirty: bool,
    /// Host copy holds writes the device has not seen (`update device` clears).
    host_dirty: bool,
}

/// The data environment of one device context.
///
/// Besides capacity accounting, the environment keeps a *dirty bit* per
/// mapped array in each direction: kernels report their writes through
/// [`DataEnv::mark_device_write`], hosts report theirs through
/// [`DataEnv::mark_host_write`]. [`DataEnv::host_read`] turns a host read
/// of stale data into a typed error instead of a silent wrong answer, and
/// [`DataEnv::device_copy_stale`] flags the dual hazard on the device side.
pub struct DataEnv {
    dev: DeviceSpec,
    mem: DeviceMemory,
    host_alloc: HostAlloc,
    mapped: HashMap<String, Mapping>,
    /// Names that were mapped once and have since been deleted
    /// (distinguishes double-delete from never-mapped).
    freed: HashSet<String>,
    transfer_s: SimTime,
}

impl DataEnv {
    /// New environment on a device, with the given host allocation policy
    /// (the PGI `pin` option of the paper's best compile line).
    pub fn new(dev: DeviceSpec, host_alloc: HostAlloc) -> Self {
        let mem = DeviceMemory::new(dev.global_mem_bytes);
        Self {
            dev,
            mem,
            host_alloc,
            mapped: HashMap::new(),
            freed: HashSet::new(),
            transfer_s: 0.0,
        }
    }

    /// `!$acc enter data copyin(name)` — allocate and upload. `now` is the
    /// simulated timestamp the transfer starts at (the runtime clock),
    /// recorded with the event so traces carry true start times.
    pub fn enter_data_copyin(
        &mut self,
        name: &str,
        bytes: u64,
        now: SimTime,
        prof: &Profiler,
    ) -> Result<SimTime, DataError> {
        let t = self.map(name, bytes)?;
        let dt = transfer_time(&self.dev, bytes, self.host_alloc, TransferKind::Contiguous);
        prof.record_bytes(
            EventKind::MemcpyH2D,
            format!("copyin:{name}"),
            now,
            dt,
            0,
            bytes,
        );
        self.transfer_s += dt;
        Ok(t + dt)
    }

    /// `!$acc enter data create(name)` — allocate without upload (device
    /// scratch, e.g. transposition temporaries).
    pub fn enter_data_create(&mut self, name: &str, bytes: u64) -> Result<SimTime, DataError> {
        self.map(name, bytes)
    }

    fn map(&mut self, name: &str, bytes: u64) -> Result<SimTime, DataError> {
        if self.mapped.contains_key(name) {
            return Err(DataError::AlreadyPresent(name.to_string()));
        }
        let buffer = self.mem.alloc(bytes).map_err(DataError::Oom)?;
        self.freed.remove(name);
        self.mapped.insert(
            name.to_string(),
            Mapping {
                buffer,
                bytes,
                device_dirty: false,
                host_dirty: false,
            },
        );
        Ok(0.0)
    }

    /// `!$acc exit data delete(name)` — free device memory.
    ///
    /// Chosen semantics (documented because the OpenACC spec makes absent
    /// deletes a silent no-op, which hides real directive-sequence bugs):
    /// deleting a variable that is not mapped is an *error*, typed as
    /// [`DataError::AlreadyDeleted`] when the name was mapped earlier in
    /// this environment's lifetime (a double delete) and
    /// [`DataError::NotPresent`] when it never was (a typo'd name).
    pub fn exit_data_delete(&mut self, name: &str) -> Result<(), DataError> {
        match self.mapped.remove(name) {
            Some(_) => {
                self.freed.insert(name.to_string());
                Ok(())
            }
            None if self.freed.contains(name) => Err(DataError::AlreadyDeleted(name.to_string())),
            None => Err(DataError::NotPresent(name.to_string())),
        }
    }

    /// `!$acc update host(name[range])` — download `bytes` (None = all),
    /// starting at simulated time `now`.
    pub fn update_host(
        &mut self,
        name: &str,
        bytes: Option<u64>,
        kind: TransferKind,
        now: SimTime,
        prof: &Profiler,
    ) -> Result<SimTime, DataError> {
        let m = self
            .mapped
            .get_mut(name)
            .ok_or_else(|| DataError::NotPresent(name.to_string()))?;
        let n = bytes.unwrap_or(m.bytes).min(m.bytes);
        m.device_dirty = false;
        let dt = transfer_time(&self.dev, n, self.host_alloc, kind);
        prof.record_bytes(
            EventKind::MemcpyD2H,
            format!("update_host:{name}"),
            now,
            dt,
            0,
            n,
        );
        self.transfer_s += dt;
        Ok(dt)
    }

    /// `!$acc update device(name[range])` — upload `bytes` (None = all),
    /// starting at simulated time `now`.
    pub fn update_device(
        &mut self,
        name: &str,
        bytes: Option<u64>,
        kind: TransferKind,
        now: SimTime,
        prof: &Profiler,
    ) -> Result<SimTime, DataError> {
        let m = self
            .mapped
            .get_mut(name)
            .ok_or_else(|| DataError::NotPresent(name.to_string()))?;
        let n = bytes.unwrap_or(m.bytes).min(m.bytes);
        m.host_dirty = false;
        let dt = transfer_time(&self.dev, n, self.host_alloc, kind);
        prof.record_bytes(
            EventKind::MemcpyH2D,
            format!("update_device:{name}"),
            now,
            dt,
            0,
            n,
        );
        self.transfer_s += dt;
        Ok(dt)
    }

    /// The `present(name)` clause: error when not mapped.
    pub fn present(&self, name: &str) -> Result<(), DataError> {
        if self.mapped.contains_key(name) {
            Ok(())
        } else {
            Err(DataError::NotPresent(name.to_string()))
        }
    }

    /// Record a device-side write of `name` (a kernel launch listing it in
    /// its write set). Sets the device dirty bit; a no-op on unmapped names
    /// (the launch-side `present` check reports those).
    pub fn mark_device_write(&mut self, name: &str) {
        if let Some(m) = self.mapped.get_mut(name) {
            m.device_dirty = true;
        }
    }

    /// Record a host-side write of `name` (the driver refreshed its copy
    /// before an `update device`). Sets the host dirty bit.
    pub fn mark_host_write(&mut self, name: &str) {
        if let Some(m) = self.mapped.get_mut(name) {
            m.host_dirty = true;
        }
    }

    /// The stale-host-read detector: a host read of a mapped array whose
    /// last write happened on the device (no `update host` since) returns
    /// [`DataError::StaleHostRead`]. Reads of unmapped or coherent arrays
    /// are fine.
    pub fn host_read(&self, name: &str) -> Result<(), DataError> {
        match self.mapped.get(name) {
            Some(m) if m.device_dirty => Err(DataError::StaleHostRead(name.to_string())),
            _ => Ok(()),
        }
    }

    /// The dual check: true when a device read of `name` would observe a
    /// host copy not yet uploaded (`update device` missing after a host
    /// write).
    pub fn device_copy_stale(&self, name: &str) -> bool {
        self.mapped.get(name).is_some_and(|m| m.host_dirty)
    }

    /// Whether the device copy of `name` carries writes the host has not
    /// downloaded.
    pub fn device_dirty(&self, name: &str) -> bool {
        self.mapped.get(name).is_some_and(|m| m.device_dirty)
    }

    /// Mapped size of `name`, if present (observability: lets callers
    /// compute the actual bytes a ranged `update` will move).
    pub fn mapped_bytes(&self, name: &str) -> Option<u64> {
        self.mapped.get(name).map(|m| m.bytes)
    }

    /// Bytes currently resident (what `nvidia-smi` guided in Section 5.1).
    pub fn device_bytes_in_use(&self) -> u64 {
        self.mem.in_use()
    }

    /// Total simulated PCIe time so far.
    pub fn transfer_time(&self) -> SimTime {
        self.transfer_s
    }

    /// The underlying device spec.
    pub fn device(&self) -> &DeviceSpec {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> (DataEnv, Profiler) {
        (
            DataEnv::new(DeviceSpec::m2090(), HostAlloc::Pinned),
            Profiler::new(),
        )
    }

    #[test]
    fn copyin_maps_and_prices_transfer() {
        let (mut e, p) = env();
        let t = e.enter_data_copyin("u", 1 << 20, 0.0, &p).unwrap();
        assert!(t > 0.0);
        assert_eq!(e.device_bytes_in_use(), 1 << 20);
        assert!(e.present("u").is_ok());
        assert_eq!(p.len(), 1);
        e.exit_data_delete("u").unwrap();
        assert_eq!(e.device_bytes_in_use(), 0);
        assert!(e.present("u").is_err());
    }

    #[test]
    fn create_is_free_of_transfers() {
        let (mut e, p) = env();
        let t = e.enter_data_create("tmp", 1 << 20).unwrap();
        assert_eq!(t, 0.0);
        assert!(p.is_empty());
        assert_eq!(e.transfer_time(), 0.0);
    }

    #[test]
    fn double_map_rejected() {
        let (mut e, p) = env();
        e.enter_data_copyin("u", 100, 0.0, &p).unwrap();
        let err = e.enter_data_copyin("u", 100, 0.0, &p).unwrap_err();
        assert!(matches!(err, DataError::AlreadyPresent(_)));
    }

    #[test]
    fn oom_surfaces_capacity() {
        let (mut e, p) = env();
        // 6 GB card: a 7 GB request must fail.
        let err = e.enter_data_copyin("big", 7 << 30, 0.0, &p).unwrap_err();
        match err {
            DataError::Oom(o) => assert_eq!(o.capacity, 6 << 30),
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn update_host_partial_and_errors() {
        let (mut e, p) = env();
        e.enter_data_copyin("u", 1 << 24, 0.0, &p).unwrap();
        let full = e
            .update_host("u", None, TransferKind::Contiguous, 0.0, &p)
            .unwrap();
        let part = e
            .update_host("u", Some(1 << 12), TransferKind::Contiguous, 0.0, &p)
            .unwrap();
        assert!(part < full);
        assert!(e
            .update_host("ghost", None, TransferKind::Contiguous, 0.0, &p)
            .is_err());
        // Partial ghost updates pay a strided penalty.
        let strided = e
            .update_host(
                "u",
                Some(1 << 12),
                TransferKind::Strided {
                    chunks: 64,
                    chunk_bytes: 64,
                },
                0.0,
                &p,
            )
            .unwrap();
        assert!(strided > part);
    }

    #[test]
    fn transfer_time_accumulates() {
        let (mut e, p) = env();
        e.enter_data_copyin("a", 1 << 20, 0.0, &p).unwrap();
        let t1 = e.transfer_time();
        e.update_device("a", None, TransferKind::Contiguous, 0.0, &p)
            .unwrap();
        assert!(e.transfer_time() > t1);
    }

    #[test]
    fn double_delete_vs_never_mapped_are_distinct_errors() {
        let (mut e, p) = env();
        e.enter_data_copyin("u", 100, 0.0, &p).unwrap();
        e.exit_data_delete("u").unwrap();
        assert!(matches!(
            e.exit_data_delete("u"),
            Err(DataError::AlreadyDeleted(_))
        ));
        assert!(matches!(
            e.exit_data_delete("ghost"),
            Err(DataError::NotPresent(_))
        ));
        // Remapping clears the tombstone: the next delete succeeds again.
        e.enter_data_copyin("u", 100, 0.0, &p).unwrap();
        assert!(e.exit_data_delete("u").is_ok());
    }

    #[test]
    fn dirty_bits_catch_stale_host_reads() {
        let (mut e, p) = env();
        e.enter_data_copyin("u", 1 << 20, 0.0, &p).unwrap();
        // Fresh copyin is coherent.
        assert!(e.host_read("u").is_ok());
        e.mark_device_write("u");
        assert!(e.device_dirty("u"));
        assert!(matches!(e.host_read("u"), Err(DataError::StaleHostRead(_))));
        e.update_host("u", None, TransferKind::Contiguous, 0.0, &p)
            .unwrap();
        assert!(e.host_read("u").is_ok());
        // Unmapped names never trip the detector (host-only data).
        assert!(e.host_read("host_only").is_ok());
    }

    #[test]
    fn host_dirty_cleared_by_update_device() {
        let (mut e, p) = env();
        e.enter_data_copyin("u", 1 << 20, 0.0, &p).unwrap();
        assert!(!e.device_copy_stale("u"));
        e.mark_host_write("u");
        assert!(e.device_copy_stale("u"));
        e.update_device("u", None, TransferKind::Contiguous, 0.0, &p)
            .unwrap();
        assert!(!e.device_copy_stale("u"));
    }

    #[test]
    fn freeing_restores_capacity_for_phase_swap() {
        // The paper's offload-forward/upload-backward dance: a second phase
        // that would not co-fit must fit after exit data.
        let (mut e, p) = env();
        e.enter_data_copyin("forward", 4 << 30, 0.0, &p).unwrap();
        assert!(e.enter_data_copyin("backward", 4 << 30, 0.0, &p).is_err());
        e.exit_data_delete("forward").unwrap();
        assert!(e.enter_data_copyin("backward", 4 << 30, 0.0, &p).is_ok());
    }
}
