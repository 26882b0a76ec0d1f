//! Experiment library: builders and measurement harnesses for every
//! table and figure in the paper's evaluation, shared by the `expts`
//! binary, the micro-benches, and the calibration tests.
//!
//! Per-experiment index (see DESIGN.md §5):
//!
//! | id | artifact | module |
//! |----|----------|--------|
//! | T1 | Table 1 scheduler op costs | [`table1`] |
//! | F2 | Figure 2 / Table 2 schedule trace | [`fig2`] |
//! | F3–F5 | breakdown utilization curves | [`breakdown_figs`] |
//! | T3 | CSD-3 per-case overheads | [`table3`] |
//! | F11/F12 | semaphore pair overhead vs queue length | [`semfig`] |
//! | S7 | state message vs mailbox (reconstructed §7) | [`statemsg_expt`] |
//! | SZ | footprint report | re-exported from `emeralds_core::footprint` |
//! | CS | CSD partition search cost | [`searchcost`] |
//! | CY | cyclic-executive baseline (§5 motivation) | [`cyclic_expt`] |
//! | SY | optimized-syscall ablation (§3) | [`syscall_expt`] |
//! | CX | CSD queue-count sweep (§5.6) | [`csdx_expt`] |
//! | SC | multi-node cluster scaling (not a paper figure) | [`scale_expt`] |
//! | FT | fault injection + recovery forensics (not a paper figure) | [`faults_expt`] |
//! | TOPO | bridged multi-segment topologies (not a paper figure) | [`topo_expt`] |

pub mod breakdown_figs;
pub mod csdx_expt;
pub mod cyclic_expt;
pub mod faults_expt;
pub mod fig2;
pub mod microbench;
pub mod scale_expt;
pub mod searchcost;
pub mod semfig;
pub mod statemsg_expt;
pub mod syscall_expt;
pub mod table1;
pub mod table3;
pub mod topo_expt;
