//! Fixed-block kernel memory pools.
//!
//! Small-memory RTOSs avoid general heaps: kernel objects come from
//! statically sized pools so allocation is O(1), fragmentation-free,
//! and the worst-case RAM budget is known at build time (§2–3: all
//! ROM/RAM is on-chip, tens of kilobytes). The simulated kernel draws
//! every object at build time and never returns one, so each pool
//! holds exactly the length of the kernel table it backs (the timer
//! pool: the timer blocks reserved at build). The builder rejects a
//! configuration that overdraws a pool, and the footprint report reads
//! the counts.

use std::fmt;

/// One fixed-block pool.
#[derive(Clone, Debug)]
pub struct Pool {
    pub name: &'static str,
    pub block_bytes: usize,
    pub capacity: usize,
    used: usize,
}

impl Pool {
    /// A pool of `capacity` blocks of `block_bytes` each, `used` of
    /// them drawn.
    pub fn new(name: &'static str, block_bytes: usize, capacity: usize, used: usize) -> Pool {
        Pool {
            name,
            block_bytes,
            capacity,
            used,
        }
    }

    /// Peak blocks in use: every block drawn at build, since none is
    /// ever returned.
    pub fn high_water(&self) -> usize {
        self.used
    }

    /// Total reserved RAM for this pool.
    pub fn reserved_bytes(&self) -> usize {
        self.block_bytes * self.capacity
    }

    /// RAM actually needed at the observed peak.
    pub fn peak_bytes(&self) -> usize {
        self.block_bytes * self.used
    }
}

/// The kernel's object pools.
#[derive(Clone, Debug)]
pub struct PoolSet {
    pub tcbs: Pool,
    pub sems: Pool,
    pub condvars: Pool,
    pub mailboxes: Pool,
    pub statemsgs: Pool,
    pub regions: Pool,
    pub timers: Pool,
}

impl PoolSet {
    /// Pool sizes typical of the paper's target applications (§2: tens
    /// of concurrent tasks), with `used` blocks drawn from each pool in
    /// [`PoolSet::all`] order.
    pub fn small_memory(used: [usize; 7]) -> PoolSet {
        let [tcbs, sems, condvars, mailboxes, statemsgs, regions, timers] = used;
        PoolSet {
            // Block sizes model the 68k-era object layouts.
            tcbs: Pool::new("tcb", 128, 64, tcbs),
            sems: Pool::new("semaphore", 32, 64, sems),
            condvars: Pool::new("condvar", 24, 32, condvars),
            mailboxes: Pool::new("mailbox", 64, 32, mailboxes),
            statemsgs: Pool::new("statemsg", 32, 64, statemsgs),
            regions: Pool::new("region", 16, 64, regions),
            timers: Pool::new("timer", 24, 128, timers),
        }
    }

    /// All pools, for reports.
    pub fn all(&self) -> [&Pool; 7] {
        [
            &self.tcbs,
            &self.sems,
            &self.condvars,
            &self.mailboxes,
            &self.statemsgs,
            &self.regions,
            &self.timers,
        ]
    }

    /// The first pool, in [`PoolSet::all`] order, with more blocks
    /// drawn than it holds.
    pub fn overdrawn(&self) -> Option<&Pool> {
        self.all().into_iter().find(|p| p.used > p.capacity)
    }

    /// Total reserved kernel-object RAM.
    pub fn reserved_bytes(&self) -> usize {
        self.all().iter().map(|p| p.reserved_bytes()).sum()
    }

    /// Total peak kernel-object RAM.
    pub fn peak_bytes(&self) -> usize {
        self.all().iter().map(|p| p.peak_bytes()).sum()
    }
}

impl fmt::Display for PoolSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>6} {:>6} {:>6} {:>10} {:>10}",
            "pool", "block", "cap", "peak", "reserved", "peak RAM"
        )?;
        for p in self.all() {
            writeln!(
                f,
                "{:<12} {:>6} {:>6} {:>6} {:>9}B {:>9}B",
                p.name,
                p.block_bytes,
                p.capacity,
                p.high_water(),
                p.reserved_bytes(),
                p.peak_bytes()
            )?;
        }
        write!(
            f,
            "total reserved {}B, peak {}B",
            self.reserved_bytes(),
            self.peak_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drawn_blocks_set_peak_and_reserve() {
        let p = Pool::new("x", 32, 4, 3);
        assert_eq!(p.high_water(), 3);
        assert_eq!(p.peak_bytes(), 96);
        assert_eq!(p.reserved_bytes(), 128);
    }

    #[test]
    fn overdrawn_names_the_first_pool_past_capacity() {
        assert!(PoolSet::small_memory([64, 0, 0, 0, 0, 0, 128])
            .overdrawn()
            .is_none());
        let ps = PoolSet::small_memory([65, 0, 0, 0, 0, 0, 129]);
        let p = ps.overdrawn().expect("two pools overdrawn");
        assert_eq!((p.name, p.capacity, p.high_water()), ("tcb", 64, 65));
    }

    #[test]
    fn pool_set_totals_and_display() {
        let ps = PoolSet::small_memory([1, 1, 0, 0, 0, 0, 0]);
        assert!(ps.reserved_bytes() > 10_000);
        assert_eq!(ps.peak_bytes(), 128 + 32);
        let s = ps.to_string();
        assert!(s.contains("tcb"));
        assert!(s.contains("total reserved"));
    }
}
