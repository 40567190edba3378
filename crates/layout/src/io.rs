//! Block-granular I/O over a sector-granular disk driver.
//!
//! Besides the single-block helpers, this is the scatter-gather layer of
//! the pipelined I/O path: multi-run reads and writes are issued as one
//! tagged batch to the driver ([`cnp_disk::DiskDriver::submit_batch`])
//! whenever the driver's queue depth allows more than one outstanding
//! command, and fall back to the exact legacy serial sequence at depth 1
//! so lock-step runs replay bit-identically.

use cnp_disk::{DiskDriver, IoOp, Payload};

use crate::error::{LResult, LayoutError};
use crate::types::{BlockAddr, BLOCK_SIZE};

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

    /// True when the driver may keep several commands outstanding, i.e.
    /// batching requests buys real concurrency. Layouts consult this to
    /// keep their depth-1 request sequences identical to the
    /// pre-pipelining code.
    pub(crate) fn pipelined(&self) -> bool {
        self.driver.max_inflight() > 1
    }

    /// Reads one block.
    pub async fn read_block(&self, addr: BlockAddr) -> LResult<Payload> {
        debug_assert!(addr.is_some());
        let lba = addr.0 * self.sectors_per_block as u64;
        let (payload, _t) = self
            .driver
            .submit(IoOp::Read, lba, self.sectors_per_block, Payload::Simulated(0))
            .await?;
        Ok(payload)
    }

    /// Reads `n` consecutive blocks as one request.
    pub async fn read_run(&self, addr: BlockAddr, n: u32) -> LResult<Payload> {
        let lba = addr.0 * self.sectors_per_block as u64;
        let (payload, _t) = self
            .driver
            .submit(IoOp::Read, lba, self.sectors_per_block * n, Payload::Simulated(0))
            .await?;
        Ok(payload)
    }

    /// Reads several block runs and appends one payload per run to
    /// `out`, in input order.
    ///
    /// With a deep driver queue the runs go out as one batch and proceed
    /// concurrently; at queue depth 1 they are issued serially in order.
    pub async fn read_runs(
        &self,
        runs: &[(BlockAddr, u32)],
        out: &mut Vec<Payload>,
    ) -> LResult<()> {
        if self.pipelined() && runs.len() > 1 {
            let reqs: Vec<_> = runs
                .iter()
                .map(|&(addr, n)| {
                    (
                        IoOp::Read,
                        addr.0 * self.sectors_per_block as u64,
                        self.sectors_per_block * n,
                        Payload::Simulated(0),
                    )
                })
                .collect();
            for r in self.driver.submit_batch(reqs).await {
                out.push(r?.0);
            }
            return Ok(());
        }
        for &(addr, n) in runs {
            out.push(self.read_run(addr, n).await?);
        }
        Ok(())
    }

    /// Writes one block.
    pub async fn write_block(&self, addr: BlockAddr, payload: Payload) -> LResult<()> {
        debug_assert!(addr.is_some());
        let lba = addr.0 * self.sectors_per_block as u64;
        self.driver.submit(IoOp::Write, lba, self.sectors_per_block, payload).await?;
        Ok(())
    }

    /// Writes a run of consecutive blocks, coalescing same-kind payloads
    /// into single requests (real-byte runs stay real; simulated runs
    /// stay length-only), so big sequential writes cost one controller
    /// overhead instead of one per block. With a deep driver queue the
    /// coalesced requests are additionally issued as one concurrent
    /// batch.
    pub async fn write_run(&self, start: BlockAddr, blocks: Vec<Payload>) -> LResult<()> {
        let mut reqs: Vec<(IoOp, u64, u32, Payload)> = Vec::new();
        let mut i = 0usize;
        while i < blocks.len() {
            let real = blocks[i].bytes().is_some();
            let mut j = i + 1;
            while j < blocks.len() && (blocks[j].bytes().is_some() == real) {
                j += 1;
            }
            let n = (j - i) as u32;
            let lba = (start.0 + i as u64) * self.sectors_per_block as u64;
            let payload = if real {
                let mut buf = Vec::with_capacity((n as usize) * BLOCK_SIZE as usize);
                for b in &blocks[i..j] {
                    let bytes = b.bytes().expect("run is real");
                    buf.extend_from_slice(bytes);
                    buf.resize(buf.len().next_multiple_of(BLOCK_SIZE as usize), 0);
                }
                Payload::Data(buf)
            } else {
                Payload::Simulated(n * BLOCK_SIZE)
            };
            reqs.push((IoOp::Write, lba, self.sectors_per_block * n, payload));
            i = j;
        }
        self.submit_writes(reqs).await
    }

    /// Writes blocks at arbitrary addresses (scatter), coalescing
    /// physically-consecutive same-kind payloads into single requests.
    /// Input order is preserved in the coalescing scan, so update-in-
    /// place layouts keep their write ordering semantics.
    ///
    /// At queue depth 1 nothing is coalesced or batched: each block goes
    /// out as its own request in input order, the exact pre-pipelining
    /// sequence.
    pub async fn write_scatter(&self, blocks: Vec<(BlockAddr, Payload)>) -> LResult<()> {
        let pipelined = self.pipelined();
        let mut reqs: Vec<(IoOp, u64, u32, Payload)> = Vec::new();
        let mut i = 0usize;
        while i < blocks.len() {
            let start = blocks[i].0;
            let real = blocks[i].1.bytes().is_some();
            let mut j = i + 1;
            while pipelined
                && j < blocks.len()
                && blocks[j].0 .0 == start.0 + (j - i) as u64
                && blocks[j].1.bytes().is_some() == real
            {
                j += 1;
            }
            let n = (j - i) as u32;
            let lba = start.0 * self.sectors_per_block as u64;
            let payload = if real {
                let mut buf = Vec::with_capacity((n as usize) * BLOCK_SIZE as usize);
                for (_, b) in &blocks[i..j] {
                    let bytes = b.bytes().expect("run is real");
                    buf.extend_from_slice(bytes);
                    buf.resize(buf.len().next_multiple_of(BLOCK_SIZE as usize), 0);
                }
                Payload::Data(buf)
            } else {
                Payload::Simulated(n * BLOCK_SIZE)
            };
            reqs.push((IoOp::Write, lba, self.sectors_per_block * n, payload));
            i = j;
        }
        self.submit_writes(reqs).await
    }

    /// Issues prepared write requests: one concurrent batch with a deep
    /// queue, the legacy serial sequence at depth 1.
    async fn submit_writes(&self, reqs: Vec<(IoOp, u64, u32, Payload)>) -> LResult<()> {
        if self.pipelined() && reqs.len() > 1 {
            for r in self.driver.submit_batch(reqs).await {
                r?;
            }
            return Ok(());
        }
        for (op, lba, sectors, payload) in reqs {
            self.driver.submit(op, lba, sectors, payload).await?;
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
