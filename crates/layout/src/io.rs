//! Block-granular I/O over a sector-granular disk driver.
//!
//! Besides the single-block helpers, this is the scatter-gather layer of
//! the I/O path: multi-run reads and writes go to the driver as one
//! tagged batch ([`cnp_disk::DiskDriver::submit_batch`]) at every queue
//! depth, so its scheduler sees them all at once. The driver's depth
//! alone decides how many of them are at the device together.

use cnp_disk::{DiskDriver, IoOp, Payload};

use crate::error::{LResult, LayoutError};
use crate::types::{BlockAddr, BLOCK_SIZE};

/// One driver request: `(op, lba, sectors, payload)`.
type Request = (IoOp, u64, u32, Payload);

/// Block-addressed view of a [`DiskDriver`].
#[derive(Clone)]
pub struct BlockIo {
    driver: DiskDriver,
    sectors_per_block: u32,
}

impl BlockIo {
    /// Wraps a driver; the driver's sector size must divide [`BLOCK_SIZE`].
    pub fn new(driver: DiskDriver) -> Self {
        let ssz = driver.sector_size();
        assert!(BLOCK_SIZE.is_multiple_of(ssz), "sector size {ssz} must divide block size");
        BlockIo { driver: driver.clone(), sectors_per_block: BLOCK_SIZE / ssz }
    }

    /// The wrapped driver.
    pub fn driver(&self) -> &DiskDriver {
        &self.driver
    }

    /// Device capacity in file-system blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.driver.capacity_sectors() / self.sectors_per_block as u64
    }

    /// The first sector of block `addr`.
    fn lba(&self, addr: BlockAddr) -> u64 {
        addr.0 * self.sectors_per_block as u64
    }

    /// Reads one block.
    pub async fn read_block(&self, addr: BlockAddr) -> LResult<Payload> {
        debug_assert!(addr.is_some());
        self.read_run(addr, 1).await
    }

    /// Reads `n` consecutive blocks as one request.
    pub async fn read_run(&self, addr: BlockAddr, n: u32) -> LResult<Payload> {
        let sectors = self.sectors_per_block * n;
        let (payload, _t) =
            self.driver.submit(IoOp::Read, self.lba(addr), sectors, Payload::Simulated(0)).await?;
        Ok(payload)
    }

    /// Reads several block runs and appends one payload per run to
    /// `out`, in input order. The runs go out as one batch.
    pub async fn read_runs(
        &self,
        runs: &[(BlockAddr, u32)],
        out: &mut Vec<Payload>,
    ) -> LResult<()> {
        if let [(addr, n)] = *runs {
            out.push(self.read_run(addr, n).await?);
            return Ok(());
        }
        let reqs = runs
            .iter()
            .map(|&(addr, n)| {
                let sectors = self.sectors_per_block * n;
                (IoOp::Read, self.lba(addr), sectors, Payload::Simulated(0))
            })
            .collect();
        self.submit_all(reqs, |p| out.push(p)).await
    }

    /// Writes one block.
    pub async fn write_block(&self, addr: BlockAddr, payload: Payload) -> LResult<()> {
        debug_assert!(addr.is_some());
        self.driver.submit(IoOp::Write, self.lba(addr), self.sectors_per_block, payload).await?;
        Ok(())
    }

    /// Writes a run of consecutive blocks: the consecutive-address case
    /// of [`BlockIo::write_scatter`].
    pub async fn write_run(&self, start: BlockAddr, blocks: &[Payload]) -> LResult<()> {
        let reqs = self.coalesce((start.0..).map(BlockAddr).zip(blocks));
        self.submit_all(reqs, drop).await
    }

    /// Writes blocks at arbitrary addresses (scatter), coalescing
    /// physically-consecutive same-kind payloads into single requests
    /// and issuing those as one batch. Input order is preserved in the
    /// coalescing scan, so update-in-place layouts keep their write
    /// ordering semantics.
    pub async fn write_scatter(&self, blocks: Vec<(BlockAddr, Payload)>) -> LResult<()> {
        let reqs = self.coalesce(blocks.iter().map(|(addr, p)| (*addr, p)));
        self.submit_all(reqs, drop).await
    }

    /// The write coalescer: one request per run of blocks whose
    /// addresses follow each other and whose payloads are the same kind
    /// (real-byte runs stay real; simulated runs stay length-only), so a
    /// big sequential write costs one controller overhead instead of one
    /// per block. A run is measured on a copy of the iterator before it
    /// is consumed, so a real run's buffer is allocated once, at size.
    fn coalesce<'a>(
        &self,
        mut blocks: impl Iterator<Item = (BlockAddr, &'a Payload)> + Clone,
    ) -> Vec<Request> {
        let mut reqs = Vec::new();
        while let Some((start, first)) = blocks.clone().next() {
            let real = first.bytes().is_some();
            let n = blocks
                .clone()
                .zip(start.0..)
                .take_while(|((addr, p), want)| addr.0 == *want && p.bytes().is_some() == real)
                .count();
            let payload = if real {
                let mut buf = Vec::with_capacity(n * BLOCK_SIZE as usize);
                for (_, p) in blocks.by_ref().take(n) {
                    buf.extend_from_slice(p.bytes().expect("run is real"));
                    buf.resize(buf.len().next_multiple_of(BLOCK_SIZE as usize), 0);
                }
                Payload::Data(buf)
            } else {
                blocks.nth(n - 1);
                Payload::Simulated(n as u32 * BLOCK_SIZE)
            };
            reqs.push((IoOp::Write, self.lba(start), self.sectors_per_block * n as u32, payload));
        }
        reqs
    }

    /// Sends `reqs` to the driver and hands each result's payload to
    /// `each`, in order: one request through `submit`, more than one as
    /// one `submit_batch`.
    async fn submit_all(
        &self,
        mut reqs: Vec<Request>,
        mut each: impl FnMut(Payload),
    ) -> LResult<()> {
        if reqs.len() > 1 {
            for r in self.driver.submit_batch(reqs).await {
                each(r?.0);
            }
        } else if let Some((op, lba, sectors, payload)) = reqs.pop() {
            each(self.driver.submit(op, lba, sectors, payload).await?.0);
        }
        Ok(())
    }

    /// Extracts block `idx` of a multi-block payload as owned bytes.
    pub fn block_bytes(payload: &Payload, idx: usize) -> LResult<Vec<u8>> {
        match payload.bytes() {
            Some(b) => {
                let lo = idx * BLOCK_SIZE as usize;
                let hi = lo + BLOCK_SIZE as usize;
                if b.len() < hi {
                    return Err(LayoutError::Corrupt(format!(
                        "payload too short: {} < {hi}",
                        b.len()
                    )));
                }
                Ok(b[lo..hi].to_vec())
            }
            None => Err(LayoutError::Corrupt("expected real bytes, got simulated".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_sim::Sim;

    /// Depth decides how many commands are at the device, never what is
    /// sent: at 1 as at 2, consecutive blocks coalesce into one command,
    /// and several runs wait in the driver queue together.
    #[test]
    fn depth_one_coalesces_and_batches_like_depth_two() {
        for depth in [1, 2] {
            let sim = Sim::new(5);
            let driver =
                sim_disk_driver(&sim.handle(), "d0", Box::new(Hp97560::new()), Box::new(CLook));
            driver.set_max_inflight(depth);
            let io = BlockIo::new(driver.clone());
            let block = |tag| vec![tag; BLOCK_SIZE as usize];
            let (a, b) = (100, 900);
            let (commands, out) = sim.block_on("test", async move {
                let blocks = [(a, 1), (a + 1, 2), (a + 2, 3), (b, 4)];
                let blocks = blocks.map(|(addr, tag)| (BlockAddr(addr), Payload::Data(block(tag))));
                io.write_scatter(blocks.into()).await.unwrap();
                let commands = io.driver().stats().completed;
                let mut out = Vec::new();
                let runs = [(BlockAddr(a), 2), (BlockAddr(a + 2), 1), (BlockAddr(b), 1)];
                io.read_runs(&runs, &mut out).await.unwrap();
                io.driver().shutdown();
                (commands, out)
            });
            assert_eq!(commands, 2, "qd {depth}: [a, a+1, a+2] is one command, b one more");
            let stats = driver.stats();
            assert!(
                stats.max_queue_len >= 3.0,
                "qd {depth}: queue peaked at {}",
                stats.max_queue_len
            );
            let bytes: Vec<u8> =
                out.iter().flat_map(|p| p.bytes().expect("real").to_vec()).collect();
            assert_eq!(bytes, [1, 2, 3, 4].map(block).concat(), "qd {depth}: blocks out of place");
        }
    }
}
