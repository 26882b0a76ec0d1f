//! Prioritized interrupt controller.
//!
//! Models the 68k-style interrupt scheme the paper's platforms use:
//! numbered lines with fixed priorities (lower line number = higher
//! priority) and a pending latch per line. There is no global mask and
//! no per-line enable: the kernel never masks a line, so every latched
//! line is deliverable. The kernel counts raises itself
//! (`ServiceCounters::irq_raised`).

use emeralds_sim::IrqLine;

/// Maximum number of interrupt lines on the simulated controller.
pub const MAX_IRQ_LINES: usize = 32;

/// A simple prioritized interrupt controller: one pending bit per line.
#[derive(Clone, Debug, Default)]
pub struct InterruptController {
    pending: u32,
}

impl InterruptController {
    /// Creates a controller with no line pending.
    pub fn new() -> Self {
        Self::default()
    }

    fn bit(line: IrqLine) -> u32 {
        assert!(line.index() < MAX_IRQ_LINES, "IRQ line {line} out of range");
        1 << line.index()
    }

    /// Latches `line` pending (device side).
    pub fn raise(&mut self, line: IrqLine) {
        self.pending |= Self::bit(line);
    }

    /// The highest-priority pending interrupt, if any (lowest line
    /// number wins, matching 68k autovector priorities).
    pub fn pending_highest(&self) -> Option<IrqLine> {
        (self.pending != 0).then(|| IrqLine(self.pending.trailing_zeros()))
    }

    /// Acknowledges (clears) a pending line; the kernel calls this at
    /// the top of the first-level handler.
    pub fn ack(&mut self, line: IrqLine) {
        self.pending &= !Self::bit(line);
    }

    /// True if `line` is latched pending.
    pub fn is_pending(&self, line: IrqLine) -> bool {
        self.pending & Self::bit(line) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_ack_cycle() {
        let mut ic = InterruptController::new();
        assert_eq!(ic.pending_highest(), None);
        ic.raise(IrqLine(3));
        assert!(ic.is_pending(IrqLine(3)));
        assert_eq!(ic.pending_highest(), Some(IrqLine(3)));
        ic.ack(IrqLine(3));
        assert_eq!(ic.pending_highest(), None);
    }

    #[test]
    fn priority_is_lowest_line_first() {
        let mut ic = InterruptController::new();
        ic.raise(IrqLine(7));
        ic.raise(IrqLine(2));
        ic.raise(IrqLine(5));
        assert_eq!(ic.pending_highest(), Some(IrqLine(2)));
        ic.ack(IrqLine(2));
        assert_eq!(ic.pending_highest(), Some(IrqLine(5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_out_of_range_panics() {
        let mut ic = InterruptController::new();
        ic.raise(IrqLine(32));
    }
}
