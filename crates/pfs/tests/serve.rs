//! Serving-tier integration tests: the same `NfsServer` suite runs
//! against both back-ends the paper's substitution thesis names — the
//! simulated HP 97560 (virtual time) and the host-file disk
//! (`pfs_over_file`) — plus stale-handle, transfer-cap, cache
//! invalidation, batching, and never-panic (proptest) coverage.

use cnp_core::{DataMode, FileSystem, FsConfig};
use cnp_disk::{sim_disk_driver, CLook, Hp97560};
use cnp_layout::{Layout, LfsLayout, LfsParams};
use cnp_pfs::{
    client, pfs_over_file, Fhandle, NfsProc, NfsServer, NfsStat, ServeConfig, XdrDecoder,
};
use cnp_sim::Sim;
use proptest::prelude::*;

/// Runs `f` on a server over the simulated disk (virtual time).
fn run_sim_server<F, Fut>(qd: u32, cfg: ServeConfig, f: F)
where
    F: FnOnce(NfsServer) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let sim = Sim::new(47);
    let h = sim.handle();
    let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
    let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
    let fs_cfg = FsConfig { data_mode: DataMode::Real, queue_depth: qd, ..FsConfig::default() };
    let fs = FileSystem::new(&h, layout, fs_cfg);
    run_server_inner(&sim, fs, cfg, f);
}

/// Runs `f` on a server over a host backing file (`pfs_over_file`).
fn run_file_server<F, Fut>(name: &str, cfg: ServeConfig, f: F)
where
    F: FnOnce(NfsServer) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let image =
        std::env::temp_dir().join(format!("cnp-pfs-serve-{}-{name}.img", std::process::id()));
    let _ = std::fs::remove_file(&image);
    let sim = Sim::new(47);
    let h = sim.handle();
    let fs = pfs_over_file(&h, &image, 65_536, None).expect("backing file");
    run_server_inner(&sim, fs, cfg, f);
    let _ = std::fs::remove_file(&image);
}

fn run_server_inner<F, Fut>(sim: &Sim, fs: FileSystem, cfg: ServeConfig, f: F)
where
    F: FnOnce(NfsServer) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    sim.block_on("serve-test", async move {
        fs.format().await.unwrap();
        f(NfsServer::with_config(fs.clone(), cfg)).await;
        fs.shutdown();
    });
}

fn status_of_reply(reply: &[u8]) -> u32 {
    XdrDecoder::new(reply).get_u32().expect("status")
}

/// Decodes an attr reply: `(status, ino, kind, size, mtime, gen)`.
fn decode_attr(reply: &[u8]) -> (u32, u64, u32, u64, u64, u32) {
    let mut d = XdrDecoder::new(reply);
    let status = d.get_u32().unwrap();
    if status != 0 {
        return (status, 0, 0, 0, 0, 0);
    }
    (
        status,
        d.get_u64().unwrap(),
        d.get_u32().unwrap(),
        d.get_u64().unwrap(),
        d.get_u64().unwrap(),
        d.get_u32().unwrap(),
    )
}

fn fh_of_lookup(reply: &[u8]) -> Fhandle {
    let (status, ino, _, _, _, gen) = decode_attr(reply);
    assert_eq!(status, NfsStat::Ok as u32, "lookup failed");
    Fhandle { ino, gen }
}

/// The cross-backend suite: sessions, handles, staleness, caps,
/// invalidation — every protocol feature the serving tier claims.
async fn full_suite(srv: NfsServer) {
    let s1 = srv.session(1);
    let s2 = srv.session(2);

    // Namespace setup + handle acquisition (Lookup happens once).
    assert_eq!(status_of_reply(&s1.handle(&client::path_req(NfsProc::Mkdir, "/d")).await), 0);
    assert_eq!(status_of_reply(&s1.handle(&client::path_req(NfsProc::Create, "/d/f")).await), 0);
    let fh = fh_of_lookup(&s1.handle(&client::path_req(NfsProc::Lookup, "/d/f")).await);

    // Write + read ride the handle; payload round-trips (Real mode on
    // both back-ends).
    let payload: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
    let r = s1.handle(&client::write_fh_req(fh, 0, &payload)).await;
    let mut d = XdrDecoder::new(&r);
    assert_eq!(d.get_u32().unwrap(), 0);
    assert_eq!(d.get_u64().unwrap(), payload.len() as u64);
    let r = s2.handle(&client::read_fh_req(fh, 0, 1 << 20)).await;
    assert_eq!(r.capacity(), r.len(), "read reply sized from its payload");
    let mut d = XdrDecoder::new(&r);
    assert_eq!(d.get_u32().unwrap(), 0);
    assert_eq!(d.get_u64().unwrap(), payload.len() as u64);
    assert_eq!(d.get_opaque().unwrap(), payload);

    // Attributes by handle; truncate via SETATTR; size is visible.
    let (st, _, _, size, _, _) = decode_attr(&s1.handle(&client::getattr_fh_req(fh)).await);
    assert_eq!((st, size), (0, payload.len() as u64));
    let (st, _, _, size, _, _) = decode_attr(&s1.handle(&client::setattr_fh_req(fh, 5)).await);
    assert_eq!((st, size), (0, 5));
    let (st, _, _, size, _, _) = decode_attr(&s2.handle(&client::getattr_fh_req(fh)).await);
    assert_eq!((st, size), (0, 5));

    // Stale handles: remove retires the ino; a recreation gets a new
    // generation and the old handle stays stale forever.
    assert_eq!(status_of_reply(&s1.handle(&client::path_req(NfsProc::Remove, "/d/f")).await), 0);
    assert_eq!(
        status_of_reply(&s2.handle(&client::getattr_fh_req(fh)).await),
        NfsStat::Stale as u32
    );
    assert_eq!(status_of_reply(&s1.handle(&client::path_req(NfsProc::Create, "/d/f")).await), 0);
    let fh2 = fh_of_lookup(&s1.handle(&client::path_req(NfsProc::Lookup, "/d/f")).await);
    assert_ne!(fh2.gen, fh.gen, "reincarnation must change the generation");
    assert_eq!(
        status_of_reply(&s2.handle(&client::read_fh_req(fh, 0, 8)).await),
        NfsStat::Stale as u32,
        "old handle must stay stale after reincarnation"
    );
    assert_eq!(status_of_reply(&s2.handle(&client::write_fh_req(fh2, 0, b"new")).await), 0);

    // Rename: names invalidate, handles survive (NFS semantics).
    assert_eq!(status_of_reply(&s1.handle(&client::rename_req("/d/f", "/d/g")).await), 0);
    assert_eq!(
        status_of_reply(&s1.handle(&client::path_req(NfsProc::GetAttr, "/d/f")).await),
        NfsStat::NoEnt as u32
    );
    let (st, ino, _, _, _, _) = decode_attr(&s1.handle(&client::getattr_fh_req(fh2)).await);
    assert_eq!((st, ino), (0, fh2.ino), "handle survives rename");

    // Trailing garbage: rejected before any side effect.
    let mut evil = client::path_req(NfsProc::Create, "/d/evil");
    evil.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    assert_eq!(status_of_reply(&s1.handle(&evil).await), NfsStat::BadRpc as u32);
    assert_eq!(
        status_of_reply(&s1.handle(&client::path_req(NfsProc::GetAttr, "/d/evil")).await),
        NfsStat::NoEnt as u32,
        "rejected request must leave no side effect"
    );

    // Hostile read length: capped, not allocated.
    let r = s1.handle(&client::read_fh_req(fh2, 0, u64::MAX)).await;
    let mut d = XdrDecoder::new(&r);
    assert_eq!(d.get_u32().unwrap(), 0);
    let n = d.get_u64().unwrap();
    assert!(n <= srv.config().max_transfer, "read beyond max_transfer");

    // ReadDir still works through the tier.
    let r = s1.handle(&client::path_req(NfsProc::ReadDir, "/d")).await;
    assert_eq!(r.capacity(), r.len(), "readdir reply sized from its listing");
    let mut d = XdrDecoder::new(&r);
    assert_eq!(d.get_u32().unwrap(), 0);
    assert_eq!(d.get_u32().unwrap(), 1, "exactly /d/g remains");
}

#[test]
fn suite_on_simulated_disk() {
    run_sim_server(8, ServeConfig::default(), full_suite);
}

#[test]
fn suite_on_host_file_disk() {
    run_file_server("suite", ServeConfig::default(), full_suite);
}

#[test]
fn rename_into_own_subtree_is_noent_on_the_wire() {
    run_sim_server(8, ServeConfig::default(), |srv| async move {
        let s = srv.session(1);
        for dir in ["/a", "/a/b"] {
            assert_eq!(status_of_reply(&s.handle(&client::path_req(NfsProc::Mkdir, dir)).await), 0);
        }
        // The engine answers BadPath, which the wire maps to NoEnt: a
        // status reply like any other, and the tree stays reachable.
        let r = s.handle(&client::rename_req("/a", "/a/b/c")).await;
        assert_eq!(status_of_reply(&r), NfsStat::NoEnt as u32);
        assert_eq!(r.len(), 4, "status-only reply");
        assert_eq!(status_of_reply(&s.handle(&client::path_req(NfsProc::Lookup, "/a/b")).await), 0);
        let r = s.handle(&client::path_req(NfsProc::ReadDir, "/")).await;
        let mut d = XdrDecoder::new(&r);
        assert_eq!((d.get_u32().unwrap(), d.get_u32().unwrap()), (0, 1), "/ still lists /a");
    });
}

#[test]
fn transfer_caps_short_read_and_write() {
    let cfg = ServeConfig { max_transfer: 4096, ..ServeConfig::default() };
    run_sim_server(8, cfg, |srv| async move {
        let s = srv.session(1);
        s.handle(&client::path_req(NfsProc::Create, "/big")).await;
        let fh = fh_of_lookup(&s.handle(&client::path_req(NfsProc::Lookup, "/big")).await);
        // A 10000-byte write is accepted only up to wsize: short write.
        let payload = vec![7u8; 10_000];
        let r = s.handle(&client::write_fh_req(fh, 0, &payload)).await;
        let mut d = XdrDecoder::new(&r);
        assert_eq!(d.get_u32().unwrap(), 0);
        assert_eq!(d.get_u64().unwrap(), 4096, "write capped at wsize");
        // A 2^63-byte read request transfers rsize bytes, not 2^63.
        let r = s.handle(&client::read_fh_req(fh, 0, 1 << 63)).await;
        let mut d = XdrDecoder::new(&r);
        assert_eq!(d.get_u32().unwrap(), 0);
        assert_eq!(d.get_u64().unwrap(), 4096, "read capped at rsize");
        assert_eq!(d.get_opaque().unwrap().len(), 4096);
    });
}

#[test]
fn write_whose_end_passes_u64_max_is_fbig_and_writes_nothing() {
    run_sim_server(8, ServeConfig::default(), |srv| async move {
        let s = srv.session(1);
        s.handle(&client::path_req(NfsProc::Create, "/f")).await;
        let fh = fh_of_lookup(&s.handle(&client::path_req(NfsProc::Lookup, "/f")).await);
        assert_eq!(status_of_reply(&s.handle(&client::write_fh_req(fh, 0, b"ab")).await), 0);
        let r = s.handle(&client::write_fh_req(fh, u64::MAX - 1, &[1, 2, 3, 4])).await;
        assert_eq!(status_of_reply(&r), NfsStat::FBig as u32);
        let (status, _, _, size, ..) = decode_attr(&s.handle(&client::getattr_fh_req(fh)).await);
        assert_eq!((status, size), (0, 2), "the refused write moved the size");
        let r = s.handle(&client::write_fh_req(fh, 0, b"cd")).await;
        let mut d = XdrDecoder::new(&r);
        assert_eq!((d.get_u32().unwrap(), d.get_u64().unwrap()), (0, 2));
    });
}

#[test]
fn setattr_past_the_largest_file_is_fbig_and_the_next_returns_at_once() {
    run_sim_server(8, ServeConfig::default(), |srv| async move {
        let s = srv.session(1);
        s.handle(&client::path_req(NfsProc::Create, "/f")).await;
        let fh = fh_of_lookup(&s.handle(&client::path_req(NfsProc::Lookup, "/f")).await);
        assert_eq!(status_of_reply(&s.handle(&client::write_fh_req(fh, 0, b"ab")).await), 0);
        let before = decode_attr(&s.handle(&client::getattr_fh_req(fh)).await);
        let r = s.handle(&client::setattr_fh_req(fh, u64::MAX)).await;
        assert_eq!(status_of_reply(&r), NfsStat::FBig as u32);
        assert_eq!(decode_attr(&s.handle(&client::getattr_fh_req(fh)).await), before);
        // A size the engine took would leave this one 2^52 blocks to
        // walk, not two bytes.
        let (status, _, _, size, ..) = decode_attr(&s.handle(&client::setattr_fh_req(fh, 0)).await);
        assert_eq!((status, size), (0, 0));
    });
}

#[test]
fn attr_and_lookup_caches_hit_and_invalidate() {
    run_sim_server(8, ServeConfig::default(), |srv| async move {
        let s = srv.session(1);
        s.handle(&client::path_req(NfsProc::Create, "/f")).await;
        // First GetAttr: lookup miss, full walk. Second: pure cache.
        s.handle(&client::path_req(NfsProc::GetAttr, "/f")).await;
        s.handle(&client::path_req(NfsProc::GetAttr, "/f")).await;
        let m = srv.metrics();
        assert!(m.counter_value("serve.lookup_cache.hits") >= 1, "second getattr must hit");
        assert!(m.counter_value("serve.attr_cache.hits") >= 1);
        let ops_before = srv.fs().stats().ops;
        s.handle(&client::path_req(NfsProc::GetAttr, "/f")).await;
        assert_eq!(srv.fs().stats().ops, ops_before, "cached getattr must not touch the engine");
        // A write invalidates the attributes; the next GetAttr refills
        // and sees the new size.
        let fh = fh_of_lookup(&s.handle(&client::path_req(NfsProc::Lookup, "/f")).await);
        s.handle(&client::write_fh_req(fh, 0, b"0123456789")).await;
        let (st, _, _, size, _, _) =
            decode_attr(&s.handle(&client::path_req(NfsProc::GetAttr, "/f")).await);
        assert_eq!((st, size), (0, 10), "write must invalidate cached attributes");
        let m = srv.metrics();
        assert!(m.counter_value("serve.cache.invalidations") >= 1);
    });
}

#[test]
fn batch_replies_in_order_and_bounded() {
    run_sim_server(2, ServeConfig::default(), |srv| async move {
        let mut reqs: Vec<(u32, Vec<u8>)> = Vec::new();
        for c in 0..4u32 {
            reqs.push((c, client::path_req(NfsProc::Mkdir, &format!("/w{c}"))));
        }
        for c in 0..4u32 {
            reqs.push((c, client::path_req(NfsProc::Create, &format!("/w{c}/f"))));
        }
        let replies = srv.serve_batch(&reqs).await;
        assert_eq!(replies.len(), reqs.len());
        for r in &replies {
            assert_eq!(status_of_reply(r), 0);
        }
        let m = srv.metrics();
        assert_eq!(m.counter_value("serve.requests"), 8);
        assert_eq!(m.counter_value("serve.errors"), 0);
    });
}

proptest! {
    /// The decoder never panics and never accepts trailing bytes:
    /// arbitrary mutations of valid requests either decode to the
    /// unextended request or fail cleanly.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u32..256, 0..96),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = cnp_pfs::decode_request(&bytes);
    }

    /// The full dispatcher answers *every* byte string with a status
    /// reply — never a panic, never silence.
    #[test]
    fn dispatcher_always_replies_with_status(
        batch in prop::collection::vec(prop::collection::vec(0u32..256, 0..64), 1..6),
    ) {
        let batch: Vec<Vec<u8>> =
            batch.into_iter().map(|r| r.into_iter().map(|b| b as u8).collect()).collect();
        run_sim_server(4, ServeConfig::default(), |srv| async move {
            let s = srv.session(1);
            for req in &batch {
                let reply = s.handle(req).await;
                assert!(reply.len() >= 4, "reply must carry a status word");
                let _ = status_of_reply(&reply);
            }
        });
    }

    /// A valid request with appended garbage is always BadRpc.
    #[test]
    fn garbage_tail_is_always_badrpc(
        which in 0u32..8,
        tail in prop::collection::vec(0u32..256, 1..16),
    ) {
        let fh = Fhandle { ino: 1, gen: 1 };
        let mut wire = match which {
            0 => client::path_req(NfsProc::GetAttr, "/p"),
            1 => client::path_req(NfsProc::Lookup, "/p"),
            2 => client::path_req(NfsProc::Create, "/p"),
            3 => client::rename_req("/p", "/q"),
            4 => client::getattr_fh_req(fh),
            5 => client::read_fh_req(fh, 0, 8),
            6 => client::write_fh_req(fh, 0, b"hi"),
            _ => client::setattr_fh_req(fh, 0),
        };
        wire.extend(tail.into_iter().map(|b| b as u8));
        prop_assert_eq!(cnp_pfs::decode_request(&wire), Err(NfsStat::BadRpc));
    }
}
