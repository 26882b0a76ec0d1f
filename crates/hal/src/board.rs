//! The simulated board: devices + interrupt controller + MPU.
//!
//! A [`Board`] bundles everything outside the CPU core. The kernel asks
//! it for the next scheduled sensor sample and tells it when virtual
//! time has advanced; the board latches interrupts in response, which
//! the kernel then dispatches to registered handlers. Network frames do
//! not pass through the board: the fieldbus executive pushes them into
//! a kernel's mailbox and raises its NIC line with
//! `Kernel::raise_external_irq`.

use emeralds_sim::{DevId, EventQueue, IrqLine, Time};

use crate::device::{Actuator, Device, DeviceEvent, DeviceKind, Nic, Sensor};
use crate::irq::InterruptController;
use crate::mpu::Mpu;

/// The board: peripheral state shared by kernel and devices.
#[derive(Debug)]
pub struct Board {
    pub intc: InterruptController,
    pub mpu: Mpu,
    devices: Vec<Device>,
    schedule: EventQueue<DeviceEvent>,
}

impl Board {
    /// Creates a board with no devices.
    pub fn new() -> Self {
        Board {
            intc: InterruptController::new(),
            mpu: Mpu::new(),
            devices: Vec::new(),
            schedule: EventQueue::new(),
        }
    }

    /// Adds a sensor wired to `irq`. Returns its device id.
    pub fn add_sensor(&mut self, irq: Option<IrqLine>) -> DevId {
        self.add_device(DeviceKind::Sensor(Sensor::default()), irq)
    }

    /// Adds an actuator (no interrupt). Returns its device id.
    pub fn add_actuator(&mut self) -> DevId {
        self.add_device(DeviceKind::Actuator(Actuator::default()), None)
    }

    /// Adds the board's network interface. Returns its device id.
    ///
    /// # Panics
    ///
    /// Panics if the board already has a NIC.
    pub fn add_nic(&mut self, nic: Nic) -> DevId {
        assert!(self.nic().is_none(), "the board already has a NIC");
        let Nic { tx, rx, irq } = nic;
        self.add_device(DeviceKind::Nic { tx, rx }, Some(irq))
    }

    /// The board's network interface wiring, if it has one.
    pub fn nic(&self) -> Option<Nic> {
        self.devices.iter().find_map(|d| match (&d.kind, d.irq) {
            (&DeviceKind::Nic { tx, rx }, Some(irq)) => Some(Nic { tx, rx, irq }),
            _ => None,
        })
    }

    fn add_device(&mut self, kind: DeviceKind, irq: Option<IrqLine>) -> DevId {
        let id = DevId(self.devices.len() as u32);
        self.devices.push(Device { id, kind, irq });
        id
    }

    /// Schedules a sample `value` to arrive at device `dev` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is not a sensor: only sensors take samples.
    pub fn schedule_sample(&mut self, at: Time, dev: DevId, value: u32) {
        assert!(
            matches!(self.device(dev).kind, DeviceKind::Sensor(_)),
            "sample scheduled for non-sensor device {dev}"
        );
        self.schedule.push(at, DeviceEvent { dev, value });
    }

    /// Schedules `count` periodic samples starting at `start`.
    pub fn schedule_periodic_samples(
        &mut self,
        dev: DevId,
        start: Time,
        period: emeralds_sim::Duration,
        count: u64,
        mut value_fn: impl FnMut(u64) -> u32,
    ) {
        let mut at = start;
        for k in 0..count {
            self.schedule_sample(at, dev, value_fn(k));
            at += period;
        }
    }

    /// Time of the next scheduled device occurrence, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.schedule.peek_time()
    }

    /// Delivers every occurrence due at or before `now`: samples land
    /// in device registers and wired interrupt lines are latched.
    /// Raised lines are appended to `raised`, a caller-owned scratch
    /// buffer (the kernel hot loop reuses one across calls so the
    /// steady state allocates nothing).
    pub fn advance_to(&mut self, now: Time, raised: &mut Vec<IrqLine>) {
        while let Some((_, ev)) = self.schedule.pop_due(now) {
            let dev = &mut self.devices[ev.dev.index()];
            dev.deliver_sample(ev.value);
            if let Some(line) = dev.irq {
                self.intc.raise(line);
                raised.push(line);
            }
        }
    }

    /// Immutable access to a device.
    ///
    /// # Panics
    ///
    /// Panics if the device id is unknown.
    pub fn device(&self, dev: DevId) -> &Device {
        &self.devices[dev.index()]
    }

    /// Mutable access to a device.
    pub fn device_mut(&mut self, dev: DevId) -> &mut Device {
        &mut self.devices[dev.index()]
    }

    /// Convenience: the actuator log of `dev`.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is not an actuator.
    pub fn actuator_log(&self, dev: DevId) -> &[(Time, u32)] {
        match &self.device(dev).kind {
            DeviceKind::Actuator(a) => &a.log,
            _ => panic!("{dev} is not an actuator"),
        }
    }

    /// Number of devices on the board.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The interrupt lines the board's devices are wired to, in device
    /// order.
    pub fn irq_lines(&self) -> impl Iterator<Item = IrqLine> + '_ {
        self.devices.iter().filter_map(|d| d.irq)
    }
}

impl Default for Board {
    fn default() -> Self {
        Board::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emeralds_sim::{Duration, MboxId};

    #[test]
    fn scheduled_samples_raise_irqs() {
        let mut b = Board::default();
        let rpm = b.add_sensor(Some(IrqLine(4)));
        b.schedule_sample(Time::from_ms(1), rpm, 900);
        assert_eq!(b.next_event_time(), Some(Time::from_ms(1)));
        let mut raised = Vec::new();
        b.advance_to(Time::from_us(500), &mut raised);
        assert!(raised.is_empty());
        b.advance_to(Time::from_ms(1), &mut raised);
        assert_eq!(raised, vec![IrqLine(4)]);
        assert_eq!(b.device_mut(rpm).read_register(), 900);
        assert_eq!(b.intc.pending_highest(), Some(IrqLine(4)));
    }

    #[test]
    fn periodic_schedule_generates_count_samples() {
        let mut b = Board::default();
        let s = b.add_sensor(None);
        b.schedule_periodic_samples(s, Time::from_ms(1), Duration::from_ms(2), 5, |k| k as u32);
        b.advance_to(Time::from_ms(20), &mut Vec::new());
        if let DeviceKind::Sensor(sen) = &b.device(s).kind {
            assert_eq!(sen.samples, 5);
            assert_eq!(sen.latest, 4);
        }
        assert_eq!(b.next_event_time(), None);
    }

    const NIC: Nic = Nic {
        tx: MboxId(0),
        rx: MboxId(1),
        irq: IrqLine(2),
    };

    #[test]
    #[should_panic(expected = "non-sensor device")]
    fn samples_for_a_nic_are_rejected_when_scheduled() {
        let mut b = Board::default();
        let nic = b.add_nic(NIC);
        b.schedule_sample(Time::from_ms(1), nic, 7);
    }

    #[test]
    fn actuator_helpers() {
        let mut b = Board::default();
        let act = b.add_actuator();
        b.device_mut(act).write_register(Time::from_ms(3), 7);
        assert_eq!(b.actuator_log(act), &[(Time::from_ms(3), 7)]);
    }

    #[test]
    fn nic_device_is_registered_with_irq() {
        let mut b = Board::default();
        assert_eq!(b.nic(), None);
        b.add_sensor(None);
        let nic = b.add_nic(NIC);
        b.add_actuator();
        assert_eq!(b.device(nic).irq, Some(IrqLine(2)));
        assert_eq!(b.nic(), Some(NIC));
        assert_eq!(b.device_count(), 3);
        assert_eq!(b.irq_lines().collect::<Vec<_>>(), vec![IrqLine(2)]);
        b.intc.raise(IrqLine(2));
        assert_eq!(b.intc.pending_highest(), Some(IrqLine(2)));
    }

    #[test]
    #[should_panic(expected = "already has a NIC")]
    fn a_second_nic_is_rejected() {
        let mut b = Board::default();
        b.add_nic(NIC);
        b.add_nic(NIC);
    }
}
