//! PFS command line: mkfs + exercise an on-line file system backed by a
//! real host file (real data movement — the paper's PFS).
//!
//! ```text
//! pfs mkfs <image> [sectors]      # format a backing file
//! pfs exercise <image>            # run a small NFS-like session
//! ```

use cnp_pfs::{client, pfs_over_file, Fhandle, NfsProc, NfsServer, XdrDecoder};
use cnp_sim::Sim;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: pfs <mkfs|exercise> <image> [sectors]");
        std::process::exit(2);
    }
    let cmd = args[0].clone();
    let image = PathBuf::from(&args[1]);
    let sectors: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(262_144);

    let sim = Sim::new(0x9f5);
    let h = sim.handle();
    let fs = pfs_over_file(&h, &image, sectors, None).expect("open backing file");
    let fs2 = fs.clone();
    h.spawn("pfs-main", async move {
        match cmd.as_str() {
            "mkfs" => {
                fs2.format().await.expect("format");
                println!("formatted {} ({} sectors)", image.display(), sectors);
            }
            "exercise" => {
                fs2.format().await.expect("format");
                let srv = NfsServer::new(fs2.clone());
                let session = srv.session(1);
                session.handle(&client::path_req(NfsProc::Mkdir, "/home")).await;
                session.handle(&client::path_req(NfsProc::Create, "/home/hello.txt")).await;
                // Lookup once; write and read ride the file handle.
                let r = session.handle(&client::path_req(NfsProc::Lookup, "/home/hello.txt")).await;
                let mut d = XdrDecoder::new(&r);
                assert_eq!(d.get_u32().expect("status"), 0, "lookup failed");
                let ino = d.get_u64().expect("ino");
                let _kind = d.get_u32().expect("kind");
                let _size = d.get_u64().expect("size");
                let _mtime = d.get_u64().expect("mtime");
                let gen = d.get_u32().expect("gen");
                let fh = Fhandle { ino, gen };
                let payload = b"PFS: same code on-line and off-line".to_vec();
                session.handle(&client::write_fh_req(fh, 0, &payload)).await;
                let reply = session.handle(&client::read_fh_req(fh, 0, 1024)).await;
                let mut d = XdrDecoder::new(&reply);
                let status = d.get_u32().expect("status");
                let n = d.get_u64().expect("len");
                let data = d.get_opaque().expect("data");
                println!(
                    "NFS read via fh {ino}/{gen}: status {status}, {n} bytes: {:?}",
                    String::from_utf8_lossy(data)
                );
                fs2.unmount().await.expect("unmount");
                println!("cache: {:?}", fs2.cache_stats());
                print!("{}", srv.metrics().to_table());
            }
            other => eprintln!("unknown command {other}"),
        }
        fs2.shutdown();
    });
    sim.run();
}
