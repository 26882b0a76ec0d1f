//! The CPU's virtual clock.

use emeralds_sim::{Duration, Time};

/// A monotonically advancing virtual clock.
///
/// The kernel advances the clock for every charge (overhead) and every
/// slice of application computation; nothing else moves time, so the
/// sum of the accounting ledger always equals `now() - boot`.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now: Time,
}

impl Clock {
    /// A clock at boot time.
    pub fn new() -> Self {
        Clock { now: Time::ZERO }
    }

    /// The current instant.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances by `d`.
    pub fn advance(&mut self, d: Duration) {
        self.now += d;
    }

    /// Advances to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past; the simulation must never rewind.
    pub fn advance_to(&mut self, t: Time) {
        assert!(t >= self.now, "clock cannot run backwards");
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = Clock::new();
        c.advance(Duration::from_us(3));
        assert_eq!(c.now(), Time::from_us(3));
        c.advance_to(Time::from_us(10));
        assert_eq!(c.now(), Time::from_us(10));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn cannot_rewind() {
        let mut c = Clock::new();
        c.advance_to(Time::from_us(5));
        c.advance_to(Time::from_us(4));
    }
}
