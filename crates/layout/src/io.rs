//! Block-granular I/O over a sector-granular disk driver.
//!
//! Besides the single-block helpers, this is the scatter-gather layer of
//! the I/O path: multi-run reads and writes go to the driver as one
//! tagged batch ([`cnp_disk::DiskDriver::submit_batch`]) at every queue
//! depth, so its scheduler sees them all at once. The driver's depth
//! alone decides how many of them are at the device together.
//!
//! It also keeps the stack's [`BlockPool`]: metadata blocks and the
//! coalescer's run buffers come from it, and a write's completion hands
//! its payload back to it.

use std::cell::RefCell;
use std::rc::Rc;

use cnp_disk::{DiskDriver, IoOp, Payload};

use crate::error::{LResult, LayoutError};
use crate::types::{BlockAddr, BLOCK_SIZE};

/// One driver request: `(op, lba, sectors, payload)`.
type Request = (IoOp, u64, u32, Payload);

/// How many spare buffers a [`BlockPool`] keeps; one handed back past
/// that is dropped. Two segments' worth of metadata blocks.
const POOL_BUFFERS: usize = 256;

/// The buffers a stack's metadata travels in: a block the log encodes
/// into, a run the coalescer copies a segment's blocks into, and a
/// write's payload once the device has it. It starts empty, keeps at
/// most [`POOL_BUFFERS`], and lends every buffer empty, so what a
/// caller sends is what it wrote or zeroes ([`BlockIo::lend_block`]).
#[derive(Default)]
struct BlockPool {
    free: RefCell<Vec<Vec<u8>>>,
    /// Emptied request lists, for the next batch.
    requests: RefCell<Vec<Vec<Request>>>,
}

impl BlockPool {
    /// An empty buffer with room for `len` bytes: the smallest spare
    /// that has it (so a block never takes a run's buffer), the latest
    /// given back among equals, else a new one.
    fn take(&self, len: usize) -> Vec<u8> {
        let mut free = self.free.borrow_mut();
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in free.iter().enumerate().rev() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
                if cap == len {
                    break;
                }
            }
        }
        let Some((i, _)) = best else { return Vec::with_capacity(len) };
        let mut buf = free.swap_remove(i);
        buf.clear();
        buf
    }

    /// Keeps `buf` for the next [`BlockPool::take`], if it holds a block
    /// and the pool has room.
    fn give(&self, buf: Vec<u8>) {
        let mut free = self.free.borrow_mut();
        if buf.capacity() >= BLOCK_SIZE as usize && free.len() < POOL_BUFFERS {
            free.push(buf);
        }
    }

    /// An empty request list, a reused one when there is one.
    fn requests(&self) -> Vec<Request> {
        self.requests.borrow_mut().pop().unwrap_or_default()
    }
}

/// Block-addressed view of a [`DiskDriver`]. Clones share the driver
/// and the block pool.
#[derive(Clone)]
pub struct BlockIo {
    driver: DiskDriver,
    sectors_per_block: u32,
    pool: Rc<BlockPool>,
}

impl BlockIo {
    /// Wraps a driver; the driver's sector size must divide [`BLOCK_SIZE`].
    pub fn new(driver: DiskDriver) -> Self {
        let ssz = driver.sector_size();
        assert!(BLOCK_SIZE.is_multiple_of(ssz), "sector size {ssz} must divide block size");
        BlockIo { driver: driver.clone(), sectors_per_block: BLOCK_SIZE / ssz, pool: Rc::default() }
    }

    /// One block of zeroes, in a buffer from the pool when it has one.
    pub fn lend_block(&self) -> Vec<u8> {
        let mut buf = self.pool.take(BLOCK_SIZE as usize);
        buf.resize(BLOCK_SIZE as usize, 0);
        buf
    }

    /// A copy of `bytes`, in a buffer from the pool when it has one.
    pub fn lend_copy(&self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.pool.take(bytes.len());
        buf.extend_from_slice(bytes);
        buf
    }

    /// Gives a payload's buffer back to the pool (a simulated payload
    /// has none).
    pub fn recycle(&self, payload: Payload) {
        if let Payload::Data(buf) = payload {
            self.pool.give(buf);
        }
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
        let mut reqs = self.pool.requests();
        reqs.extend(runs.iter().map(|&(addr, n)| {
            let sectors = self.sectors_per_block * n;
            (IoOp::Read, self.lba(addr), sectors, Payload::Simulated(0))
        }));
        self.submit_all(reqs, |p| out.push(p)).await
    }

    /// Writes one block; the payload goes back to the pool once the
    /// device has it.
    pub async fn write_block(&self, addr: BlockAddr, payload: Payload) -> LResult<()> {
        debug_assert!(addr.is_some());
        let lba = self.lba(addr);
        let (done, _t) =
            self.driver.submit(IoOp::Write, lba, self.sectors_per_block, payload).await?;
        self.recycle(done);
        Ok(())
    }

    /// Writes a run of consecutive blocks: the consecutive-address case
    /// of [`BlockIo::write_scatter`].
    pub async fn write_run(&self, start: BlockAddr, blocks: &[Payload]) -> LResult<()> {
        let reqs = self.coalesce((start.0..).map(BlockAddr).zip(blocks));
        self.submit_all(reqs, |p| self.recycle(p)).await
    }

    /// Writes blocks at arbitrary addresses (scatter), coalescing
    /// physically-consecutive same-kind payloads into single requests
    /// and issuing those as one batch. Input order is preserved in the
    /// coalescing scan, so update-in-place layouts keep their write
    /// ordering semantics.
    pub async fn write_scatter(&self, blocks: Vec<(BlockAddr, Payload)>) -> LResult<()> {
        let reqs = self.coalesce(blocks.iter().map(|(addr, p)| (*addr, p)));
        self.submit_all(reqs, |p| self.recycle(p)).await
    }

    /// The write coalescer: one request per run of blocks whose
    /// addresses follow each other and whose payloads are the same kind
    /// (real-byte runs stay real; simulated runs stay length-only), so a
    /// big sequential write costs one controller overhead instead of one
    /// per block. A run is measured on a copy of the iterator before it
    /// is consumed, so a real run's buffer is taken from the pool once,
    /// at size.
    fn coalesce<'a>(
        &self,
        mut blocks: impl Iterator<Item = (BlockAddr, &'a Payload)> + Clone,
    ) -> Vec<Request> {
        let mut reqs = self.pool.requests();
        while let Some((start, first)) = blocks.clone().next() {
            let real = first.bytes().is_some();
            let n = blocks
                .clone()
                .zip(start.0..)
                .take_while(|((addr, p), want)| addr.0 == *want && p.bytes().is_some() == real)
                .count();
            let payload = if real {
                let mut buf = self.pool.take(n * BLOCK_SIZE as usize);
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
    /// `each`, in order, up to the first error: one request through
    /// `submit`, more than one as one batch. The emptied list goes back
    /// to the pool.
    async fn submit_all(
        &self,
        mut reqs: Vec<Request>,
        mut each: impl FnMut(Payload),
    ) -> LResult<()> {
        let mut failed = None;
        if reqs.len() > 1 {
            let note = |r: Result<_, _>| match r {
                Ok((payload, _)) if failed.is_none() => each(payload),
                Ok(_) => {}
                Err(e) => _ = failed.get_or_insert(e),
            };
            self.driver.submit_batch(reqs.drain(..), note).await;
        } else if let Some((op, lba, sectors, payload)) = reqs.pop() {
            match self.driver.submit(op, lba, sectors, payload).await {
                Ok((payload, _)) => each(payload),
                Err(e) => failed = Some(e),
            }
        }
        self.pool.requests.borrow_mut().push(reqs);
        failed.map_or(Ok(()), |e| Err(e.into()))
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

    /// The pool lends every buffer empty: a lent block is zeroes
    /// whatever its buffer held, and a block takes the smallest spare
    /// that holds it, never a run's while a block-sized one is spare.
    #[test]
    fn a_lent_block_is_zeroes_whatever_its_buffer_held() {
        let sim = Sim::new(5);
        let driver =
            sim_disk_driver(&sim.handle(), "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let io = BlockIo::new(driver);
        let bs = BLOCK_SIZE as usize;
        io.recycle(Payload::Data(vec![0xa5; 3 * bs]));
        io.recycle(Payload::Data(vec![0x5a; bs]));
        io.recycle(Payload::Data(vec![0x77; bs / 2]));
        let block = io.lend_block();
        assert_eq!((block.len(), block.capacity()), (bs, bs), "the block-sized spare");
        assert!(block.iter().all(|&b| b == 0), "a lent block is zeroes");
        let run = io.lend_copy(&vec![1; 2 * bs]);
        assert_eq!(run.capacity(), 3 * bs, "the run's spare");
        assert_eq!(run, vec![1; 2 * bs]);
    }

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
