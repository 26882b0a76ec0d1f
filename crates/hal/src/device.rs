//! Simulated peripheral devices.
//!
//! The paper's application domain is embedded control: sensors feeding
//! periodic control tasks, actuators consuming their output, and a
//! fieldbus network interface. Each device is a small
//! behavioural model: sensors post samples on a schedule and can raise
//! an interrupt; actuators log the commands they receive. The NIC
//! device records the node's fieldbus wiring ([`Nic`]): `emeralds-fieldbus`
//! drains its TX mailbox and delivers each frame by pushing it into its
//! RX mailbox and raising its line with `Kernel::raise_external_irq`.

use emeralds_sim::{DevId, IrqLine, MboxId, Time};

/// What kind of peripheral a [`Device`] models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    Sensor(Sensor),
    Actuator(Actuator),
    /// Network interface: the kernel mailboxes it moves frames
    /// through (its line is the device's `irq`).
    Nic {
        tx: MboxId,
        rx: MboxId,
    },
}

/// A board's network interface wiring: the mailboxes its user-level
/// driver talks through (§3) and the line it raises on each reception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nic {
    /// Application → NIC mailbox.
    pub tx: MboxId,
    /// NIC → application mailbox.
    pub rx: MboxId,
    /// Interrupt raised on frame reception.
    pub irq: IrqLine,
}

/// A sampled-input device (engine RPM, microphone frame, gyro...).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Sensor {
    /// Most recent sample, as the device data register.
    pub latest: u32,
    /// Total samples produced.
    pub samples: u64,
    /// Samples that were overwritten before any thread read them.
    pub overruns: u64,
    read_since_sample: bool,
}

impl Sensor {
    fn deliver(&mut self, value: u32) {
        if self.samples > 0 && !self.read_since_sample {
            self.overruns += 1;
        }
        self.latest = value;
        self.samples += 1;
        self.read_since_sample = false;
    }

    fn read(&mut self) -> u32 {
        self.read_since_sample = true;
        self.latest
    }
}

/// An output device logging every command written to it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Actuator {
    /// `(time, value)` log of commands, for end-to-end assertions.
    pub log: Vec<(Time, u32)>,
}

/// A device instance on the board.
#[derive(Clone, Debug)]
pub struct Device {
    pub id: DevId,
    pub kind: DeviceKind,
    /// Interrupt line the device is wired to, if any.
    pub irq: Option<IrqLine>,
}

impl Device {
    /// Delivers a scheduled sample to a sensor device.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a sensor.
    pub fn deliver_sample(&mut self, value: u32) {
        match &mut self.kind {
            DeviceKind::Sensor(s) => s.deliver(value),
            _ => panic!("sample delivered to non-sensor device {}", self.id),
        }
    }

    /// Reads the device data register (sensor sample or NIC status).
    pub fn read_register(&mut self) -> u32 {
        match &mut self.kind {
            DeviceKind::Sensor(s) => s.read(),
            DeviceKind::Actuator(a) => a.log.last().map_or(0, |&(_, v)| v),
            DeviceKind::Nic { .. } => 0,
        }
    }

    /// Writes the device command register.
    pub fn write_register(&mut self, at: Time, value: u32) {
        match &mut self.kind {
            DeviceKind::Actuator(a) => a.log.push((at, value)),
            DeviceKind::Sensor(_) | DeviceKind::Nic { .. } => {
                // Command writes to sensors/NICs are configuration;
                // modelled as no-ops.
            }
        }
    }
}

/// A scheduled device occurrence (a sensor producing a sample).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceEvent {
    pub dev: DevId,
    pub value: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor_dev() -> Device {
        Device {
            id: DevId(0),
            kind: DeviceKind::Sensor(Sensor::default()),
            irq: Some(IrqLine(4)),
        }
    }

    #[test]
    fn sensor_sample_and_read() {
        let mut d = sensor_dev();
        d.deliver_sample(1234);
        assert_eq!(d.read_register(), 1234);
        if let DeviceKind::Sensor(s) = &d.kind {
            assert_eq!(s.samples, 1);
            assert_eq!(s.overruns, 0);
        }
    }

    #[test]
    fn unread_samples_count_as_overruns() {
        let mut d = sensor_dev();
        d.deliver_sample(1);
        d.deliver_sample(2); // 1 was never read
        d.read_register();
        d.deliver_sample(3); // 2 was read
        if let DeviceKind::Sensor(s) = &d.kind {
            assert_eq!(s.overruns, 1);
        }
    }

    #[test]
    fn actuator_logs_commands() {
        let mut d = Device {
            id: DevId(1),
            kind: DeviceKind::Actuator(Actuator::default()),
            irq: None,
        };
        d.write_register(Time::from_ms(1), 42);
        d.write_register(Time::from_ms(2), 43);
        if let DeviceKind::Actuator(a) = &d.kind {
            assert_eq!(a.log, vec![(Time::from_ms(1), 42), (Time::from_ms(2), 43)]);
        }
        assert_eq!(d.read_register(), 43);
    }

    #[test]
    #[should_panic(expected = "non-sensor")]
    fn sample_to_actuator_panics() {
        let mut d = Device {
            id: DevId(1),
            kind: DeviceKind::Actuator(Actuator::default()),
            irq: None,
        };
        d.deliver_sample(1);
    }
}
