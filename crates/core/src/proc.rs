//! Multi-threaded protected processes (§3: "Multi-threaded processes:
//! Full memory protection for threads. Threads are scheduled by the
//! kernel.").

use emeralds_sim::{ProcId, ThreadId};

/// A process: an address space holding threads. The MPU records which
/// regions each process may access.
#[derive(Clone, Debug)]
pub struct Process {
    pub id: ProcId,
    pub name: String,
    pub threads: Vec<ThreadId>,
}

impl Process {
    /// Creates an empty process.
    pub fn new(id: ProcId, name: impl Into<String>) -> Process {
        Process {
            id,
            name: name.into(),
            threads: Vec::new(),
        }
    }

    /// Registers a thread.
    pub fn add_thread(&mut self, tid: ThreadId) {
        debug_assert!(!self.threads.contains(&tid));
        self.threads.push(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_tracks_threads() {
        let mut p = Process::new(ProcId(0), "engine");
        p.add_thread(ThreadId(0));
        p.add_thread(ThreadId(1));
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.name, "engine");
    }
}
