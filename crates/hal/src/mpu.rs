//! Region-based memory protection unit.
//!
//! EMERALDS provides "full memory protection for threads" (§3) on
//! MMU-less microcontrollers, which in practice means a small number of
//! base/size protection regions per process plus shared-memory windows
//! for IPC. This model checks every simulated access of an application
//! action against the owning process's regions.

use emeralds_sim::{ProcId, RegionId};

/// Access permissions on a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Perms {
    pub read: bool,
    pub write: bool,
    pub execute: bool,
}

impl Perms {
    /// Read/write data region.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        execute: false,
    };
    /// Read-only region.
    pub const RO: Perms = Perms {
        read: true,
        write: false,
        execute: false,
    };
    /// Read/execute code region.
    pub const RX: Perms = Perms {
        read: true,
        write: false,
        execute: true,
    };

    fn allows(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read,
            AccessKind::Write => self.write,
            AccessKind::Execute => self.execute,
        }
    }
}

/// Kind of simulated memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    Execute,
}

/// One protection region.
#[derive(Clone, Debug)]
pub struct Region {
    pub id: RegionId,
    pub base: u64,
    pub size: u64,
    pub perms: Perms,
    /// Processes allowed to access the region. Shared-memory IPC adds
    /// more than one.
    sharers: Vec<ProcId>,
}

impl Region {
    fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < self.size
    }

    fn shared_with(&self, proc: ProcId) -> bool {
        self.sharers.contains(&proc)
    }
}

/// A protection fault detected by the MPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MpuFault {
    pub proc: ProcId,
    pub addr: u64,
    pub kind: AccessKind,
}

/// The memory protection unit: a table of regions, indexed by their
/// ids.
#[derive(Clone, Debug, Default)]
pub struct Mpu {
    regions: Vec<Region>,
}

impl Mpu {
    /// Creates an empty MPU.
    pub fn new() -> Self {
        Mpu::default()
    }

    /// Registers a region owned by `proc`. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or overlaps an existing region.
    pub fn add_region(&mut self, proc: ProcId, base: u64, size: u64, perms: Perms) -> RegionId {
        assert!(size > 0, "empty region");
        assert!(
            !self
                .regions
                .iter()
                .any(|r| base < r.base + r.size && r.base < base + size),
            "overlapping region"
        );
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            id,
            base,
            size,
            perms,
            sharers: vec![proc],
        });
        id
    }

    /// Grants `proc` access to an existing region (shared-memory IPC
    /// mapping).
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist.
    pub fn share(&mut self, region: RegionId, proc: ProcId) {
        let r = self
            .regions
            .get_mut(region.index())
            .expect("unknown region");
        if !r.sharers.contains(&proc) {
            r.sharers.push(proc);
        }
    }

    /// Checks an access; `Ok` if some region covering `addr` is shared
    /// with `proc` and permits `kind`.
    pub fn check(&self, proc: ProcId, addr: u64, kind: AccessKind) -> Result<(), MpuFault> {
        let ok = self
            .regions
            .iter()
            .any(|r| r.contains(addr) && r.shared_with(proc) && r.perms.allows(kind));
        if ok {
            Ok(())
        } else {
            Err(MpuFault { proc, addr, kind })
        }
    }

    /// The region with id `id`. Ids are dense indices in registration
    /// order, so the lookup is O(1).
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_can_access_with_perms() {
        let mut mpu = Mpu::new();
        let p = ProcId(0);
        mpu.add_region(p, 0x1000, 0x100, Perms::RW);
        assert!(mpu.check(p, 0x1000, AccessKind::Read).is_ok());
        assert!(mpu.check(p, 0x10ff, AccessKind::Write).is_ok());
        assert!(mpu.check(p, 0x1000, AccessKind::Execute).is_err());
    }

    #[test]
    fn out_of_region_faults() {
        let mut mpu = Mpu::new();
        let p = ProcId(0);
        mpu.add_region(p, 0x1000, 0x100, Perms::RW);
        let fault = mpu.check(p, 0x1100, AccessKind::Read).unwrap_err();
        assert_eq!(fault.addr, 0x1100);
        assert_eq!(fault.kind, AccessKind::Read);
    }

    #[test]
    fn foreign_process_faults_until_shared() {
        let mut mpu = Mpu::new();
        let owner = ProcId(0);
        let other = ProcId(1);
        let r = mpu.add_region(owner, 0x2000, 0x80, Perms::RW);
        assert!(mpu.check(other, 0x2000, AccessKind::Read).is_err());
        mpu.share(r, other);
        assert!(mpu.check(other, 0x2000, AccessKind::Read).is_ok());
    }

    #[test]
    fn read_only_blocks_writes() {
        let mut mpu = Mpu::new();
        let p = ProcId(0);
        mpu.add_region(p, 0, 16, Perms::RO);
        assert!(mpu.check(p, 8, AccessKind::Read).is_ok());
        assert!(mpu.check(p, 8, AccessKind::Write).is_err());
    }

    #[test]
    #[should_panic(expected = "overlapping region")]
    fn overlap_rejected() {
        let mut mpu = Mpu::new();
        mpu.add_region(ProcId(0), 0x1000, 0x100, Perms::RW);
        mpu.add_region(ProcId(1), 0x10f0, 0x100, Perms::RW);
    }

    #[test]
    fn region_lookup() {
        let mut mpu = Mpu::new();
        let id = mpu.add_region(ProcId(0), 0x3000, 0x40, Perms::RX);
        assert_eq!(mpu.region(id).base, 0x3000);
    }
}
