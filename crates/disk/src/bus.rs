//! The SCSI-2 host/disk connection model.
//!
//! "Connections are the links between the host and the disk sub-system …
//! They also arbitrate if there is more than one controller that wants to
//! send data over the same connection … We have implemented a SCSI-2 bus.
//! This bus allows multiple hosts/disks to use the same connection, and
//! it allows hosts/disks to disconnect and re-connect during a single
//! SCSI transaction. The bus simulates a bus transfer speed of 10MB/s."
//! (§4)

use cnp_sim::{Handle, Resource, SimDuration};

/// SCSI-2 bus timing parameters.
#[derive(Debug, Clone)]
pub struct BusParams {
    /// Synchronous data-phase rate in bytes per second (SCSI-2: 10 MB/s).
    pub transfer_rate: u64,
    /// Arbitration phase duration.
    pub arbitration: SimDuration,
    /// Selection/reselection phase duration.
    pub selection: SimDuration,
    /// Command phase duration (10-byte CDB at async rates).
    pub command: SimDuration,
    /// Status + message phase duration.
    pub status: SimDuration,
}

impl Default for BusParams {
    fn default() -> Self {
        BusParams {
            transfer_rate: 10_000_000,
            arbitration: SimDuration::from_nanos(2_400),
            selection: SimDuration::from_nanos(1_400),
            command: SimDuration::from_micros(10),
            status: SimDuration::from_micros(4),
        }
    }
}

impl BusParams {
    /// The second hardware generation's host link: 320 MB/s with
    /// sub-microsecond phase overheads. A multi-channel flash device
    /// behind the 10 MB/s SCSI-2 bus would be link-bound — every
    /// measurement would show the 1996 wire, not the device — so the
    /// flash generation ships with the wire it shipped with.
    pub fn flash() -> Self {
        BusParams {
            transfer_rate: 320_000_000,
            arbitration: SimDuration::from_nanos(200),
            selection: SimDuration::from_nanos(100),
            command: SimDuration::from_micros(1),
            status: SimDuration::from_nanos(500),
        }
    }
}

/// A shared SCSI bus: an arbitrated resource plus transfer timing.
///
/// Disconnect/reconnect is expressed by *not* holding the bus during
/// mechanical work: the driver holds it only to ship the command (and
/// write data), and the disk re-acquires it to return read data/status.
#[derive(Clone)]
pub struct ScsiBus {
    handle: Handle,
    resource: Resource,
    params: BusParams,
}

impl ScsiBus {
    /// Creates a bus with SCSI-2 default timing.
    pub fn new(handle: &Handle) -> Self {
        Self::with_params(handle, BusParams::default())
    }

    /// Creates a bus with custom timing.
    pub fn with_params(handle: &Handle, params: BusParams) -> Self {
        ScsiBus { handle: handle.clone(), resource: Resource::new(handle), params }
    }

    /// Time to move `bytes` through the data phase.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / self.params.transfer_rate)
    }

    /// Occupies the bus for the *command-out* transaction phase:
    /// arbitration + selection + command, plus write data if `bytes > 0`.
    ///
    /// Returns the time spent holding the bus. SCSI ids arbitrate by
    /// priority: the highest contending id wins.
    pub async fn command_phase(&self, scsi_id: u8, bytes: u64) -> SimDuration {
        let hold = self.params.arbitration
            + self.params.selection
            + self.params.command
            + self.transfer_time(bytes);
        self.occupy(scsi_id, hold).await;
        hold
    }

    /// Occupies the bus for the *reconnect/data-in/status* phase:
    /// arbitration + reselection + read data (if any) + status.
    pub async fn completion_phase(&self, scsi_id: u8, bytes: u64) -> SimDuration {
        let hold = self.params.arbitration
            + self.params.selection
            + self.transfer_time(bytes)
            + self.params.status;
        self.occupy(scsi_id, hold).await;
        hold
    }

    /// Acquires the bus at `scsi_id` priority and holds it for `hold`.
    async fn occupy(&self, scsi_id: u8, hold: SimDuration) {
        let guard = self.resource.acquire_prio(scsi_id as u32).await;
        self.handle.sleep(hold).await;
        drop(guard);
    }

    /// Number of transactions that found the bus busy.
    pub fn contentions(&self) -> u64 {
        self.resource.contentions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_sim::{Sim, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn transfer_time_at_10mb_per_s() {
        let sim = Sim::new(0);
        let bus = ScsiBus::new(&sim.handle());
        // 4 KB at 10 MB/s = 409.6 us.
        let t = bus.transfer_time(4096);
        assert_eq!(t.as_nanos(), 409_600);
        assert_eq!(bus.transfer_time(10_000_000), SimDuration::from_secs(1));
    }

    #[test]
    fn bus_serializes_contending_transfers() {
        let sim = Sim::new(3);
        let h = sim.handle();
        let bus = ScsiBus::new(&h);
        let done = Rc::new(RefCell::new(Vec::new()));
        for id in 0..3u8 {
            let (bus, done, h2) = (bus.clone(), done.clone(), h.clone());
            h.spawn("xfer", async move {
                bus.command_phase(id, 1_000_000).await; // 100 ms each.
                done.borrow_mut().push((id, h2.now()));
            });
        }
        sim.run();
        let done = done.borrow();
        assert_eq!(done.len(), 3);
        let mut times: Vec<SimTime> = done.iter().map(|(_, t)| *t).collect();
        times.sort();
        // Serialized: completions ~100 ms apart, not simultaneous.
        assert!(times[1] >= times[0] + SimDuration::from_millis(99));
        assert!(times[2] >= times[1] + SimDuration::from_millis(99));
        assert!(bus.contentions() >= 1);
    }

    #[test]
    fn higher_scsi_id_wins_arbitration() {
        let sim = Sim::new(9);
        let h = sim.handle();
        let bus = ScsiBus::new(&h);
        let order = Rc::new(RefCell::new(Vec::new()));
        // Busy holder first so contenders queue up.
        let (b0, h0) = (bus.clone(), h.clone());
        h.spawn("holder", async move {
            b0.command_phase(0, 500_000).await; // 50 ms.
            let _ = h0;
        });
        for id in [2u8, 5, 3] {
            let (bus, order, h2) = (bus.clone(), order.clone(), h.clone());
            h.spawn("contender", async move {
                h2.sleep(SimDuration::from_millis(1)).await;
                bus.command_phase(id, 1000).await;
                order.borrow_mut().push(id);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![5, 3, 2]);
    }
}
