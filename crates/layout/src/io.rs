//! Block-granular I/O over a sector-granular disk driver.
//!
//! Besides the single-block helpers, this is the scatter-gather layer of
//! the I/O path: multi-run reads and writes go to the driver as one
//! tagged batch ([`cnp_disk::DiskDriver::submit_batch`]) at every queue
//! depth, so its scheduler sees them all at once. The driver's depth
//! alone decides how many of them are at the device together.
//!
//! Real bytes pass through as the [`Block`]s their writer made: a
//! coalesced run is the list of its blocks, shared, so nothing here
//! copies a block or keeps a buffer for the next request.

use cnp_disk::{Block, Blocks, DiskDriver, IoOp, Payload, BLOCK_BYTES};

use crate::error::{LResult, LayoutError};
use crate::types::{BlockAddr, BLOCK_SIZE};

/// One driver request: `(op, lba, sectors, payload)`.
type Request = (IoOp, u64, u32, Payload);

/// Block-addressed view of a [`DiskDriver`]. Clones share the driver.
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
        let reqs = runs.iter().map(|&(addr, n)| {
            let sectors = self.sectors_per_block * n;
            (IoOp::Read, self.lba(addr), sectors, Payload::Simulated(0))
        });
        self.submit_all(runs.len(), reqs, |p| out.push(p)).await
    }

    /// Writes one block.
    pub async fn write_block(&self, addr: BlockAddr, payload: Payload) -> LResult<()> {
        debug_assert!(addr.is_some());
        let lba = self.lba(addr);
        self.driver.submit(IoOp::Write, lba, self.sectors_per_block, payload).await?;
        Ok(())
    }

    /// Writes a run of consecutive blocks: the consecutive-address case
    /// of [`BlockIo::write_scatter`].
    pub async fn write_run<'a>(
        &self,
        start: BlockAddr,
        blocks: impl Iterator<Item = &'a Payload> + Clone,
    ) -> LResult<()> {
        self.write_coalesced((start.0..).map(BlockAddr).zip(blocks)).await
    }

    /// Writes blocks at arbitrary addresses (scatter), coalescing
    /// physically-consecutive same-kind payloads into single requests
    /// and issuing those as one batch. Input order is preserved in the
    /// coalescing scan, so update-in-place layouts keep their write
    /// ordering semantics.
    pub async fn write_scatter(&self, blocks: Vec<(BlockAddr, Payload)>) -> LResult<()> {
        self.write_coalesced(blocks.iter().map(|(addr, p)| (*addr, p))).await
    }

    /// The write coalescer: one request per run of blocks whose
    /// addresses follow each other and whose payloads are the same kind
    /// (real-byte runs stay real; simulated runs stay length-only), so a
    /// big sequential write costs one controller overhead instead of one
    /// per block. A real run's payload lists the run's blocks, shared.
    async fn write_coalesced<'a>(
        &self,
        blocks: impl Iterator<Item = (BlockAddr, &'a Payload)> + Clone,
    ) -> LResult<()> {
        // Each run's start, length and kind, measured before any is
        // built, so the batch knows its size.
        let mut rest = blocks.clone();
        let runs = std::iter::from_fn(move || {
            let (start, first) = rest.clone().next()?;
            let real = first.blocks().is_some();
            let n = rest
                .clone()
                .zip(start.0..)
                .take_while(|((addr, p), want)| addr.0 == *want && p.blocks().is_some() == real)
                .count();
            rest.nth(n - 1);
            Some((start, n, real))
        });
        let mut blocks = blocks;
        let reqs = runs.clone().map(|(start, n, real)| {
            let run = blocks.by_ref().take(n).map(|(_, p)| p);
            let payload = if real {
                let mut out = Blocks::with_capacity(if n == 1 { 0 } else { n });
                for block in run.flat_map(|p| p.blocks().expect("run is real").iter()) {
                    let block = match block.len() {
                        BLOCK_BYTES => block.clone(),
                        _ => Block::padded(block, BLOCK_BYTES),
                    };
                    match out.is_empty() {
                        true if n == 1 => out = Blocks::One(block),
                        _ => out.append(block),
                    }
                }
                Payload::Data(out)
            } else {
                run.for_each(drop);
                Payload::Simulated(n as u32 * BLOCK_SIZE)
            };
            (IoOp::Write, self.lba(start), self.sectors_per_block * n as u32, payload)
        });
        self.submit_all(runs.count(), reqs, drop).await
    }

    /// Sends `n` requests to the driver and hands each result's payload
    /// to `each`, in order, up to the first error: one request through
    /// `submit`, more than one as one batch.
    async fn submit_all(
        &self,
        n: usize,
        mut reqs: impl Iterator<Item = Request>,
        mut each: impl FnMut(Payload),
    ) -> LResult<()> {
        let mut failed = None;
        if n > 1 {
            let note = |r: Result<_, _>| match r {
                Ok((payload, _)) if failed.is_none() => each(payload),
                Ok(_) => {}
                Err(e) => _ = failed.get_or_insert(e),
            };
            self.driver.submit_batch(reqs, note).await;
        } else if let Some((op, lba, sectors, payload)) = reqs.next() {
            match self.driver.submit(op, lba, sectors, payload).await {
                Ok((payload, _)) => each(payload),
                Err(e) => failed = Some(e),
            }
        }
        failed.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Block `idx` of a multi-block payload, shared.
    pub fn block_of(payload: &Payload, idx: usize) -> LResult<Block> {
        let blocks = payload
            .blocks()
            .ok_or_else(|| LayoutError::Corrupt("expected real bytes, got simulated".into()))?;
        match blocks.get(idx) {
            Some(b) if b.len() == BLOCK_SIZE as usize => Ok(b.clone()),
            _ => Err(LayoutError::Corrupt(format!(
                "payload too short: {} < {}",
                blocks.byte_len(),
                (idx + 1) * BLOCK_SIZE as usize
            ))),
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
                let blocks =
                    blocks.map(|(addr, tag)| (BlockAddr(addr), Payload::copy_of(&block(tag))));
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
            let bytes: Vec<u8> = out.iter().flat_map(|p| p.to_vec().expect("real")).collect();
            assert_eq!(bytes, [1, 2, 3, 4].map(block).concat(), "qd {depth}: blocks out of place");
        }
    }
}
