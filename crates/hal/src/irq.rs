//! Prioritized interrupt controller.
//!
//! Models the 68k-style interrupt scheme the paper's platforms use:
//! numbered lines with fixed priorities (lower line number = higher
//! priority), a pending latch per line, per-line enables, and a global
//! interrupt mask the kernel raises inside critical sections.

use emeralds_sim::IrqLine;

/// Maximum number of interrupt lines on the simulated controller.
pub const MAX_IRQ_LINES: usize = 32;

/// A simple prioritized interrupt controller.
#[derive(Clone, Debug)]
pub struct InterruptController {
    pending: u32,
    enabled: u32,
    /// Global mask; when set, no interrupt is delivered.
    masked: bool,
    raised_count: [u64; MAX_IRQ_LINES],
}

impl InterruptController {
    /// Creates a controller with every line enabled and unmasked.
    pub fn new() -> Self {
        InterruptController {
            pending: 0,
            enabled: u32::MAX,
            masked: false,
            raised_count: [0; MAX_IRQ_LINES],
        }
    }

    fn bit(line: IrqLine) -> u32 {
        assert!(line.index() < MAX_IRQ_LINES, "IRQ line {line} out of range");
        1 << line.index()
    }

    /// Latches `line` pending (device side).
    pub fn raise(&mut self, line: IrqLine) {
        self.pending |= Self::bit(line);
        self.raised_count[line.index()] += 1;
    }

    /// Enables or disables delivery of `line`.
    pub fn set_enabled(&mut self, line: IrqLine, on: bool) {
        if on {
            self.enabled |= Self::bit(line);
        } else {
            self.enabled &= !Self::bit(line);
        }
    }

    /// Sets the global interrupt mask (kernel critical sections).
    pub fn set_masked(&mut self, masked: bool) {
        self.masked = masked;
    }

    /// The highest-priority deliverable interrupt, if any (lowest line
    /// number wins, matching 68k autovector priorities).
    pub fn pending_highest(&self) -> Option<IrqLine> {
        if self.masked {
            return None;
        }
        let deliverable = self.pending & self.enabled;
        if deliverable == 0 {
            None
        } else {
            Some(IrqLine(deliverable.trailing_zeros()))
        }
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

    /// How many times `line` has been raised since boot.
    pub fn raise_count(&self, line: IrqLine) -> u64 {
        self.raised_count[line.index()]
    }
}

impl Default for InterruptController {
    fn default() -> Self {
        Self::new()
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
        assert_eq!(ic.raise_count(IrqLine(3)), 1);
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
    fn masking_defers_but_keeps_pending() {
        let mut ic = InterruptController::new();
        ic.set_masked(true);
        ic.raise(IrqLine(0));
        assert_eq!(ic.pending_highest(), None);
        assert!(ic.is_pending(IrqLine(0)));
        ic.set_masked(false);
        assert_eq!(ic.pending_highest(), Some(IrqLine(0)));
    }

    #[test]
    fn per_line_disable() {
        let mut ic = InterruptController::new();
        ic.set_enabled(IrqLine(1), false);
        ic.raise(IrqLine(1));
        assert_eq!(ic.pending_highest(), None);
        ic.set_enabled(IrqLine(1), true);
        assert_eq!(ic.pending_highest(), Some(IrqLine(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_out_of_range_panics() {
        let mut ic = InterruptController::new();
        ic.raise(IrqLine(32));
    }
}
