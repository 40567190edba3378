//! The PFS serving tier: sessions, file handles, admission batching.
//!
//! The seed's `NfsServer` was an in-process dispatch demo — one
//! implicit client, a full path walk per operation, and no bound on
//! how many decoded requests it pushed into the engine at once. This
//! module grows it into the production shape the paper's on-line
//! instantiation (§3) implies:
//!
//! - **Sessions** ([`NfsSession`]): each connected client gets a
//!   session wrapping a per-client [`ClientFs`] engine handle, so
//!   write traffic is attributed and histories are recordable per
//!   client.
//! - **File handles** ([`HandleTable`]): Lookup returns an
//!   `ino + generation` handle; data and attribute ops present the
//!   handle instead of re-walking the path. Removing a file retires
//!   its ino, so a handle into a reincarnated ino answers
//!   [`NfsStat::Stale`] — real NFS ESTALE semantics.
//! - **Admission batching**: decoded requests acquire one of
//!   `queue_depth` admission permits (FIFO) before touching the
//!   engine, so the serving tier feeds the I/O pipeline exactly as
//!   deep as it was configured, never deeper.
//! - **Attribute/lookup caching** ([`crate::cache::NfsCache`]):
//!   GETATTR and name resolution are served from the cache when
//!   possible, write/rename/remove invalidated, with hit-rate
//!   counters in [`NfsServer::metrics`].
//!
//! Everything is deterministic: caches and tables are `BTreeMap`s,
//! generation numbers are a monotone counter, and the admission
//! semaphore is FIFO — two seeded runs serve byte-identical replies.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cnp_core::{ClientFs, FileSystem};
use cnp_layout::{FileKind, Ino, Inode};
use cnp_obs::{Histogram, MetricsSnapshot};
use cnp_sim::Semaphore;

use crate::cache::{add, Attr, NfsCache};
use crate::nfs::{decode_request, status_of, status_reply, Fhandle, NfsStat, Request};
use crate::xdr::{opaque_wire_len, XdrEncoder};

/// Serving-tier configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest byte count a single READ returns / a single WRITE
    /// accepts (NFS rsize/wsize). A client asking for more gets a
    /// short read/write — never a `len`-sized allocation.
    pub max_transfer: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_transfer: 64 * 1024 }
    }
}

/// Attribute/lookup cache capacity (entries per map).
const CACHE_ENTRIES: usize = 4096;

/// The server-side file-handle table: ino → generation for every ino
/// currently served. Generations come from one monotone counter, so
/// they are deterministic under seeded runs.
pub struct HandleTable {
    inner: std::cell::RefCell<HandleInner>,
}

struct HandleInner {
    gens: std::collections::BTreeMap<u64, u32>,
    next_gen: u32,
}

impl HandleTable {
    fn new() -> Self {
        HandleTable {
            inner: std::cell::RefCell::new(HandleInner {
                gens: std::collections::BTreeMap::new(),
                next_gen: 1,
            }),
        }
    }

    /// The handle for `ino`, assigning a fresh generation on first
    /// sight of this incarnation.
    pub fn fh_of(&self, ino: u64) -> Fhandle {
        let mut i = self.inner.borrow_mut();
        if let Some(&g) = i.gens.get(&ino) {
            return Fhandle { ino, gen: g };
        }
        let g = i.next_gen;
        i.next_gen += 1;
        i.gens.insert(ino, g);
        Fhandle { ino, gen: g }
    }

    /// Validates a presented handle against the live generation.
    pub fn check(&self, fh: Fhandle) -> Result<(), NfsStat> {
        match self.inner.borrow().gens.get(&fh.ino) {
            Some(&g) if g == fh.gen => Ok(()),
            _ => Err(NfsStat::Stale),
        }
    }

    /// Retires an ino (file removed): outstanding handles to it go
    /// stale, and a reincarnation gets a fresh generation.
    pub fn retire(&self, ino: u64) {
        self.inner.borrow_mut().gens.remove(&ino);
    }
}

/// State shared by every session of one server.
struct ServerShared {
    cfg: ServeConfig,
    handles: HandleTable,
    cache: NfsCache,
    admission: Semaphore,
    requests: Cell<u64>,
    bad_rpc: Cell<u64>,
    stale: Cell<u64>,
    errors: Cell<u64>,
    bytes_in: Cell<u64>,
    bytes_out: Cell<u64>,
    /// Wire latency per request, decode to reply, in virtual ms.
    latency: RefCell<Histogram>,
}

/// The PFS server: decodes requests, admits them into the engine's
/// pipeline, dispatches onto the abstract client interface, encodes
/// replies. Clone-cheap; sessions share one handle table, cache,
/// admission gate, and counters.
#[derive(Clone)]
pub struct NfsServer {
    fs: FileSystem,
    shared: Rc<ServerShared>,
}

impl NfsServer {
    /// Wraps a mounted file system with default serving config.
    pub fn new(fs: FileSystem) -> Self {
        NfsServer::with_config(fs, ServeConfig::default())
    }

    /// Wraps a mounted file system with explicit serving config.
    pub fn with_config(fs: FileSystem, cfg: ServeConfig) -> Self {
        let cache = NfsCache::new(CACHE_ENTRIES);
        let admission = Semaphore::new(fs.handle(), fs.queue_depth());
        let shared = ServerShared {
            cfg,
            handles: HandleTable::new(),
            cache,
            admission,
            requests: Cell::new(0),
            bad_rpc: Cell::new(0),
            stale: Cell::new(0),
            errors: Cell::new(0),
            bytes_in: Cell::new(0),
            bytes_out: Cell::new(0),
            latency: RefCell::new(Histogram::latency_default()),
        };
        NfsServer { fs, shared: Rc::new(shared) }
    }

    /// The underlying file system.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Opens a session for client `id`: the per-client view the
    /// connection layer hands each accepted client.
    pub fn session(&self, id: u32) -> NfsSession {
        NfsSession { cfs: self.fs.client(id), shared: self.shared.clone() }
    }

    /// Serves a batch of `(client, request)` pairs concurrently. At
    /// most `queue_depth` decoded requests are inside the engine at
    /// once (the admission gate); replies come back in input order.
    pub async fn serve_batch(&self, reqs: &[(u32, Vec<u8>)]) -> Vec<Vec<u8>> {
        let futs: Vec<_> = reqs
            .iter()
            .map(|(c, r)| {
                let s = self.session(*c);
                Box::pin(async move { s.handle(r).await })
            })
            .collect();
        cnp_sim::join_all(futs).await
    }

    /// Serving-tier metrics: request/error/byte counters, the wire
    /// latency histogram, and cache hit rates — all `serve.*` keys,
    /// ready to absorb next to the engine's own snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let sh = &self.shared;
        let mut m = MetricsSnapshot::new();
        m.counter("serve.requests", sh.requests.get());
        m.counter("serve.bad_rpc", sh.bad_rpc.get());
        m.counter("serve.stale", sh.stale.get());
        m.counter("serve.errors", sh.errors.get());
        m.counter("serve.bytes_in", sh.bytes_in.get());
        m.counter("serve.bytes_out", sh.bytes_out.get());
        m.histogram("serve.latency_ms", &sh.latency.borrow());
        let rate = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let (lh, lm) = (sh.cache.lookup_hits.get(), sh.cache.lookup_misses.get());
        let (ah, am) = (sh.cache.attr_hits.get(), sh.cache.attr_misses.get());
        m.counter("serve.lookup_cache.hits", lh);
        m.counter("serve.lookup_cache.misses", lm);
        m.gauge("serve.lookup_cache.hit_rate", rate(lh, lm));
        m.counter("serve.attr_cache.hits", ah);
        m.counter("serve.attr_cache.misses", am);
        m.gauge("serve.attr_cache.hit_rate", rate(ah, am));
        m.counter("serve.cache.invalidations", sh.cache.invalidations.get());
        m
    }
}

/// One client's session: a per-client engine handle plus the shared
/// serving state.
#[derive(Clone)]
pub struct NfsSession {
    cfs: ClientFs,
    shared: Rc<ServerShared>,
}

impl NfsSession {
    /// Handles one wire request into a reply of its own: the one-shot
    /// form of [`NfsSession::handle_into`].
    pub async fn handle(&self, request: &[u8]) -> Vec<u8> {
        let mut reply = Vec::new();
        self.handle_into(request, &mut reply).await;
        reply
    }

    /// Handles one wire request, `proc:u32 body…`, writing the reply,
    /// `status:u32 body…`, over whatever `reply` held. Decode borrows
    /// from `request` and happens before admission (a malformed request
    /// never costs a pipeline slot); execution holds one admission
    /// permit. Every reply reserves its exact shape, so a caller that
    /// reuses `reply` allocates nothing on the wire once it has held
    /// the longest reply it will see.
    pub async fn handle_into(&self, request: &[u8], reply: &mut Vec<u8>) {
        let sh = &self.shared;
        add(&sh.requests, 1);
        add(&sh.bytes_in, request.len() as u64);
        let t0 = self.cfs.fs().handle().now().as_nanos();
        let failed = match decode_request(request) {
            Err(status) => {
                add(&sh.bad_rpc, 1);
                Err(status)
            }
            Ok(req) => {
                let _permit = sh.admission.acquire().await;
                let outcome = self.execute(req, reply).await;
                if outcome == Err(NfsStat::Stale) {
                    add(&sh.stale, 1);
                }
                outcome
            }
        };
        if let Err(status) = failed {
            add(&sh.errors, 1);
            status_reply(status, reply);
        }
        let t1 = self.cfs.fs().handle().now().as_nanos();
        sh.latency.borrow_mut().record((t1 - t0) as f64 / 1e6);
        add(&sh.bytes_out, reply.len() as u64);
    }

    /// Executes one decoded request. Every arm either writes its full
    /// success reply into `reply`, after its last fallible step, or
    /// returns the status for a status-only reply.
    async fn execute(&self, req: Request<'_>, reply: &mut Vec<u8>) -> Result<(), NfsStat> {
        let sh = &self.shared;
        match req {
            Request::Null => status_reply(NfsStat::Ok, reply),
            Request::GetAttr { path } | Request::Lookup { path } => {
                attr_reply(&self.attr_of_path(path).await?, reply);
            }
            Request::Create { path } => {
                let ino =
                    self.cfs.create(path, FileKind::Regular).await.map_err(|e| status_of(&e))?;
                let fh = sh.handles.fh_of(ino.0);
                sh.cache.insert(path, fh, None);
                sh.cache.invalidate_parent_attr(path);
                ino_reply(fh, reply);
            }
            Request::Mkdir { path } => {
                let ino = self.cfs.mkdir(path).await.map_err(|e| status_of(&e))?;
                let fh = sh.handles.fh_of(ino.0);
                sh.cache.insert(path, fh, None);
                sh.cache.invalidate_parent_attr(path);
                ino_reply(fh, reply);
            }
            Request::Remove { path } => {
                let ino = self.resolve_ino(path).await?;
                self.cfs.unlink(path).await.map_err(|e| status_of(&e))?;
                sh.handles.retire(ino);
                sh.cache.invalidate_path(path);
                sh.cache.invalidate_parent_attr(path);
                status_reply(NfsStat::Ok, reply);
            }
            Request::Rmdir { path } => {
                let ino = self.resolve_ino(path).await?;
                self.cfs.rmdir(path).await.map_err(|e| status_of(&e))?;
                sh.handles.retire(ino);
                sh.cache.invalidate_subtree(path);
                sh.cache.invalidate_parent_attr(path);
                status_reply(NfsStat::Ok, reply);
            }
            Request::Rename { from, to } => {
                // The engine refuses to overwrite an existing target
                // (Exists), so renamed files keep their ino and their
                // handles stay valid — NFS fh-survives-rename
                // semantics. Cached names under both paths go.
                self.cfs.rename(from, to).await.map_err(|e| status_of(&e))?;
                sh.cache.invalidate_subtree(from);
                sh.cache.invalidate_subtree(to);
                sh.cache.invalidate_parent_attr(from);
                sh.cache.invalidate_parent_attr(to);
                status_reply(NfsStat::Ok, reply);
            }
            Request::ReadDir { path } => {
                let entries = self.cfs.readdir(path).await.map_err(|e| status_of(&e))?;
                // Per entry: ino, kind tag, name.
                let listing: usize =
                    entries.iter().map(|e| 8 + 4 + opaque_wire_len(e.name.len())).sum();
                XdrEncoder::write_into(reply, 8 + listing, |r| {
                    r.put_u32(NfsStat::Ok as u32);
                    r.put_u32(entries.len() as u32);
                    for e in &entries {
                        r.put_u64(e.ino.0);
                        r.put_u32(e.kind.tag() as u32);
                        r.put_str(&e.name);
                    }
                });
            }
            Request::GetAttrFh { fh } => {
                sh.handles.check(fh)?;
                let a = match sh.cache.attr(fh.ino) {
                    Some(a) => a,
                    None => {
                        let inode =
                            self.cfs.stat_ino(Ino(fh.ino)).await.map_err(|e| status_of(&e))?;
                        let a = attr_of(&inode, fh.gen);
                        sh.cache.insert_attr(a);
                        a
                    }
                };
                attr_reply(&a, reply);
            }
            Request::ReadFh { fh, offset, len } => {
                sh.handles.check(fh)?;
                self.read_capped(fh.ino, offset, len, reply).await?;
            }
            Request::WriteFh { fh, offset, data } => {
                sh.handles.check(fh)?;
                self.write_capped(fh.ino, offset, data, reply).await?;
            }
            Request::SetAttrFh { fh, size } => {
                sh.handles.check(fh)?;
                self.cfs.truncate(Ino(fh.ino), size).await.map_err(|e| status_of(&e))?;
                sh.cache.invalidate_ino(fh.ino);
                let inode = self.cfs.stat_ino(Ino(fh.ino)).await.map_err(|e| status_of(&e))?;
                let a = attr_of(&inode, fh.gen);
                sh.cache.insert_attr(a);
                attr_reply(&a, reply);
            }
        }
        Ok(())
    }

    /// Name → attributes through the caches: a lookup-cache hit plus
    /// an attr-cache hit never touches the engine; a lookup hit with
    /// an attr miss refills by ino (no path walk); a lookup miss does
    /// the one full walk and fills both.
    async fn attr_of_path(&self, path: &str) -> Result<Attr, NfsStat> {
        let sh = &self.shared;
        if let Some(fh) = sh.cache.lookup(path) {
            if let Some(a) = sh.cache.attr(fh.ino) {
                return Ok(a);
            }
            let inode = self.cfs.stat_ino(Ino(fh.ino)).await.map_err(|e| status_of(&e))?;
            let a = attr_of(&inode, fh.gen);
            sh.cache.insert_attr(a);
            return Ok(a);
        }
        let inode = self.cfs.stat(path).await.map_err(|e| status_of(&e))?;
        let fh = sh.handles.fh_of(inode.ino.0);
        let a = attr_of(&inode, fh.gen);
        sh.cache.insert(path, fh, Some(a));
        Ok(a)
    }

    /// Name → ino for destructive ops (the ino is needed to retire the
    /// handle); served from the lookup cache when possible.
    async fn resolve_ino(&self, path: &str) -> Result<u64, NfsStat> {
        if let Some(fh) = self.shared.cache.lookup(path) {
            return Ok(fh.ino);
        }
        let ino = self.cfs.lookup(path).await.map_err(|e| status_of(&e))?;
        Ok(ino.0)
    }

    /// READ with the rsize cap: the transfer length the engine sees is
    /// `min(len, max_transfer)`, so a hostile 2^63-byte request costs
    /// one bounded transfer, not a giant allocation. Short reads are
    /// the protocol-visible result, exactly as real NFS.
    async fn read_capped(
        &self,
        ino: u64,
        offset: u64,
        len: u64,
        reply: &mut Vec<u8>,
    ) -> Result<(), NfsStat> {
        let len = len.min(self.shared.cfg.max_transfer);
        let (n, data) = self.cfs.read(Ino(ino), offset, len).await.map_err(|e| status_of(&e))?;
        let data = data.as_deref().unwrap_or(&[]);
        XdrEncoder::write_into(reply, 12 + opaque_wire_len(data.len()), |r| {
            r.put_u32(NfsStat::Ok as u32);
            r.put_u64(n);
            r.put_opaque(data);
        });
        Ok(())
    }

    /// WRITE with the wsize cap: at most `max_transfer` bytes are
    /// accepted per call; the reply's count tells the client how far
    /// it got (short write).
    async fn write_capped(
        &self,
        ino: u64,
        offset: u64,
        data: &[u8],
        reply: &mut Vec<u8>,
    ) -> Result<(), NfsStat> {
        let take = (data.len() as u64).min(self.shared.cfg.max_transfer) as usize;
        let n = self
            .cfs
            .write(Ino(ino), offset, take as u64, Some(&data[..take]))
            .await
            .map_err(|e| status_of(&e))?;
        self.shared.cache.invalidate_ino(ino);
        XdrEncoder::write_into(reply, 12, |r| {
            r.put_u32(NfsStat::Ok as u32);
            r.put_u64(n);
        });
        Ok(())
    }
}

/// Attributes from an engine inode + the serving generation.
fn attr_of(inode: &Inode, gen: u32) -> Attr {
    Attr {
        ino: inode.ino.0,
        gen,
        kind_tag: inode.kind.tag() as u32,
        size: inode.size,
        mtime: inode.mtime,
    }
}

/// Writes the attr reply into `out`: `Ok ino kind size mtime gen`. The
/// `gen` rides at the end so pre-handle clients decoding the seed's
/// prefix keep working.
fn attr_reply(a: &Attr, out: &mut Vec<u8>) {
    XdrEncoder::write_into(out, 36, |e| {
        e.put_u32(NfsStat::Ok as u32);
        e.put_u64(a.ino);
        e.put_u32(a.kind_tag);
        e.put_u64(a.size);
        e.put_u64(a.mtime);
        e.put_u32(a.gen);
    });
}

/// Writes the create/mkdir reply into `out`: `Ok ino gen`.
fn ino_reply(fh: Fhandle, out: &mut Vec<u8>) {
    XdrEncoder::write_into(out, 16, |e| {
        e.put_u32(NfsStat::Ok as u32);
        e.put_u64(fh.ino);
        e.put_u32(fh.gen);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_table_generations_are_monotone_and_stale() {
        let t = HandleTable::new();
        let a = t.fh_of(10);
        let b = t.fh_of(11);
        assert_eq!(t.fh_of(10), a, "same incarnation, same handle");
        assert!(t.check(a).is_ok());
        assert!(t.check(b).is_ok());
        t.retire(10);
        assert_eq!(t.check(a), Err(NfsStat::Stale));
        let a2 = t.fh_of(10);
        assert_ne!(a2.gen, a.gen, "reincarnated ino gets a fresh generation");
        assert_eq!(t.check(a), Err(NfsStat::Stale), "old handle stays stale");
        assert!(t.check(a2).is_ok());
    }

    #[test]
    fn fixed_shape_replies_are_sized_exactly() {
        let attr = Attr { ino: 9, gen: 2, kind_tag: 0, size: 4096, mtime: 77 };
        let mut replies = [Vec::new(), Vec::new(), Vec::new()];
        status_reply(NfsStat::Ok, &mut replies[0]);
        attr_reply(&attr, &mut replies[1]);
        ino_reply(Fhandle { ino: 9, gen: 2 }, &mut replies[2]);
        for reply in replies {
            assert_eq!(reply.capacity(), reply.len(), "reply regrew or over-reserved");
        }
    }

    #[test]
    fn check_rejects_wrong_generation() {
        let t = HandleTable::new();
        let a = t.fh_of(5);
        assert_eq!(t.check(Fhandle { ino: 5, gen: a.gen + 1 }), Err(NfsStat::Stale));
        assert_eq!(t.check(Fhandle { ino: 6, gen: 1 }), Err(NfsStat::Stale));
    }
}
