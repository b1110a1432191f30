//! End-to-end tests of the networked deployment: real SP and DH daemons
//! on localhost sockets, driven through the same protocol driver the
//! in-process simulation uses.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use social_puzzles::core::construction1::Construction1;
use social_puzzles::core::context::Context;
use social_puzzles::core::metrics::ServiceMetrics;
use social_puzzles::core::protocol::SocialPuzzleApp;
use social_puzzles::net::frame::read_frame;
use social_puzzles::net::msg::decode_response;
use social_puzzles::net::{
    ClientConfig, Daemon, DaemonConfig, DhClient, DhService, ErrorCode, NetError, SpClient,
    SpService,
};
use social_puzzles::osn::{DeviceProfile, ServiceProvider, StorageHost, UserId};

fn boot_pair(cfg: DaemonConfig) -> (Daemon, Daemon) {
    let sp = Daemon::spawn(
        "127.0.0.1:0",
        Arc::new(SpService::new(ServiceProvider::new(), Construction1::new())),
        cfg.clone(),
    )
    .unwrap();
    let dh =
        Daemon::spawn("127.0.0.1:0", Arc::new(DhService::new(StorageHost::new())), cfg).unwrap();
    (sp, dh)
}

fn remote_app(sp: &Daemon, dh: &Daemon) -> SocialPuzzleApp<SpClient, DhClient> {
    SocialPuzzleApp::with_backends(
        SpClient::connect(sp.addr(), ClientConfig::default()),
        DhClient::connect(dh.addr(), ClientConfig::default()),
    )
}

fn context() -> Context {
    Context::builder()
        .pair("Where was the event?", "lakeside cabin")
        .pair("Who hosted it?", "priya")
        .pair("What did we grill?", "corn")
        .build()
        .unwrap()
}

/// The acceptance flow: both daemons up, a full Construction 1
/// share→solve→access over sockets, recovered object identical.
#[test]
fn construction1_end_to_end_over_sockets() {
    let (sp, dh) = boot_pair(DaemonConfig::default());
    let app = remote_app(&sp, &dh);
    let c1 = Construction1::new();
    let device = DeviceProfile::pc();
    let ctx = context();
    let mut rng = rand::thread_rng();

    let object = b"a photo worth protecting".to_vec();
    let share =
        app.share_c1(&c1, UserId::from_raw(1), &object, &ctx, 2, &device, None, &mut rng).unwrap();

    let ctx2 = ctx.clone();
    let recv = app
        .receive_c1(
            &c1,
            UserId::from_raw(2),
            &share,
            move |q| ctx2.answer_for(q).map(str::to_owned),
            &device,
            &mut rng,
        )
        .unwrap();
    assert_eq!(recv.object, object, "recovered object must match the original");

    // A receiver who can't answer is denied by the remote SP with the
    // same typed error the in-process driver raises.
    let denied =
        app.receive_c1(&c1, UserId::from_raw(3), &share, |_| None, &device, &mut rng).unwrap_err();
    assert_eq!(denied, social_puzzles::core::SocialPuzzleError::NotEnoughCorrectAnswers);

    sp.shutdown();
    dh.shutdown();
}

/// Refresh (§VI-C) also works over the wire: same puzzle id, new object.
#[test]
fn refresh_over_sockets_rotates_in_place() {
    let (sp, dh) = boot_pair(DaemonConfig::default());
    let app = remote_app(&sp, &dh);
    let c1 = Construction1::new();
    let device = DeviceProfile::pc();
    let ctx = context();
    let mut rng = rand::thread_rng();

    let share =
        app.share_c1(&c1, UserId::from_raw(1), b"v1", &ctx, 2, &device, None, &mut rng).unwrap();
    let refreshed = app.refresh_c1(&c1, &share, b"v2", &ctx, &device, None, &mut rng).unwrap();
    assert_eq!(refreshed.puzzle, share.puzzle);

    let ctx2 = ctx.clone();
    let recv = app
        .receive_c1(
            &c1,
            UserId::from_raw(2),
            &share,
            move |q| ctx2.answer_for(q).map(str::to_owned),
            &device,
            &mut rng,
        )
        .unwrap();
    assert_eq!(recv.object, b"v2");

    sp.shutdown();
    dh.shutdown();
}

// ----------------------------------------------------------------------
// Idle herds and half-open probes against the connection budget
// ----------------------------------------------------------------------

/// Open file descriptors in this process — the leak detector for the
/// idle-herd tier.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(usize::MAX)
}

/// Runs `cycles` full share→receive cycles and asserts each recovers
/// its object — the liveness probe under connection load.
fn active_cycles(sp: &Daemon, dh: &Daemon, cycles: usize) {
    let app = remote_app(sp, dh);
    let c1 = Construction1::new();
    let device = DeviceProfile::pc();
    let ctx = context();
    let mut rng = rand::thread_rng();
    for i in 0..cycles {
        let object = format!("served under load, cycle {i}").into_bytes();
        let share = app
            .share_c1(&c1, UserId::from_raw(90), &object, &ctx, 2, &device, None, &mut rng)
            .unwrap();
        let ctx2 = ctx.clone();
        let recv = app
            .receive_c1(
                &c1,
                UserId::from_raw(91),
                &share,
                move |q| ctx2.answer_for(q).map(str::to_owned),
                &device,
                &mut rng,
            )
            .unwrap();
        assert_eq!(recv.object, object, "cycle {i} corrupted under connection load");
    }
}

/// 64 idle sockets parked against the SP daemon while real
/// share→receive cycles run through both daemons. Every fd is handed
/// back after shutdown.
#[test]
fn serves_active_cycles_alongside_64_idle_connections() {
    let idle = 64;
    let baseline = fd_count();
    let metrics = ServiceMetrics::new();
    let cfg = DaemonConfig {
        max_connections: idle + 64,
        idle_timeout: Duration::from_secs(300),
        metrics: metrics.clone(),
        ..DaemonConfig::default()
    };
    let (sp, dh) = boot_pair(cfg);

    let held: Vec<TcpStream> = (0..idle)
        .map(|i| {
            TcpStream::connect(sp.addr())
                .unwrap_or_else(|e| panic!("idle connection {i}/{idle}: {e}"))
        })
        .collect();

    // The kernel completes handshakes from the backlog before the
    // daemon accepts, so wait for it to actually own them all.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let accepted = metrics.server("net.server").accepted as usize;
        if accepted >= idle {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon accepted only {accepted} of {idle} idle connections"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Active traffic is unaffected by the parked herd.
    active_cycles(&sp, &dh, 3);
    let server = metrics.server("net.server");
    assert_eq!(server.busy_rejections, 0, "tier ran inside the connection budget: {server:?}");
    assert_eq!(server.idle_reaped, 0, "nothing should expire under a 300s timeout: {server:?}");

    // Tear down client ends first, then the daemons.
    drop(held);
    sp.shutdown();
    dh.shutdown();

    // Every socket the test opened must be returned. Other tests share
    // this process's fd table, so allow slack and let stragglers close.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = fd_count();
        if now <= baseline + 16 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fd count stuck at {now} after shutdown (baseline {baseline})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Slow-loris half-open sockets — a fragment of a length prefix, then
/// silence — are reaped on the idle timeout while a well-behaved client
/// keeps cycling through the same daemon, unreaped because activity,
/// not connection age, is what the idle check measures.
#[test]
fn slow_loris_half_open_sockets_are_reaped_while_active_traffic_flows() {
    let metrics = ServiceMetrics::new();
    let cfg = DaemonConfig {
        idle_timeout: Duration::from_millis(250),
        metrics: metrics.clone(),
        ..DaemonConfig::default()
    };
    let (sp, dh) = boot_pair(cfg);

    let mut loris = Vec::new();
    for i in 0..8u8 {
        let mut s =
            TcpStream::connect(sp.addr()).unwrap_or_else(|e| panic!("loris connection {i}: {e}"));
        // 1–3 bytes of the 4-byte header, never the rest.
        s.write_all(&vec![i; 1 + usize::from(i % 3)]).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loris.push(s);
    }

    // Cycle well past the idle timeout: the active connections renew
    // their idle clocks with every request while the loris sockets rot.
    let active_for = Instant::now() + Duration::from_millis(800);
    while Instant::now() < active_for {
        active_cycles(&sp, &dh, 1);
    }

    for (i, mut s) in loris.into_iter().enumerate() {
        let mut buf = [0u8; 16];
        match s.read(&mut buf) {
            Ok(0) | Err(_) => {} // EOF or reset: reaped
            Ok(n) => panic!("daemon answered half-open probe {i} with {n} bytes"),
        }
    }
    let server = metrics.server("net.server");
    assert!(server.idle_reaped >= 8, "loris sockets not reaped: {server:?}");

    // The daemons still serve normally after the purge.
    active_cycles(&sp, &dh, 1);
    sp.shutdown();
    dh.shutdown();
}

/// The acceptance abuse case: an oversized frame from a raw socket is
/// refused with a typed error and the daemon keeps serving.
#[test]
fn oversized_frame_is_rejected_without_crashing_the_daemon() {
    let cfg = DaemonConfig { max_frame: 64 * 1024, ..DaemonConfig::default() };
    let (sp, dh) = boot_pair(cfg);

    // Hostile header claiming 512 MiB, straight onto the socket.
    let mut evil = TcpStream::connect(sp.addr()).unwrap();
    evil.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    evil.write_all(&(512u32 * 1024 * 1024).to_be_bytes()).unwrap();
    evil.write_all(b"filler that never amounts to the claim").unwrap();
    let resp = read_frame(&mut evil, 64 * 1024).unwrap().unwrap();
    match decode_response(&resp).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected a FrameTooLarge error frame, got {other}"),
    }
    // The poisoned connection is torn down — as an orderly EOF or, if the
    // unread filler still sits in the daemon's socket buffer when it
    // closes, a reset. Either way no further frame arrives.
    match read_frame(&mut evil, 64 * 1024) {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("daemon kept talking on a poisoned connection: {frame:?}"),
    }

    // ...and the daemons still serve a full protocol run afterwards.
    let app = remote_app(&sp, &dh);
    let c1 = Construction1::new();
    let device = DeviceProfile::pc();
    let ctx = context();
    let mut rng = rand::thread_rng();
    let share = app
        .share_c1(&c1, UserId::from_raw(1), b"still alive", &ctx, 1, &device, None, &mut rng)
        .unwrap();
    let ctx2 = ctx.clone();
    let recv = app
        .receive_c1(
            &c1,
            UserId::from_raw(2),
            &share,
            move |q| ctx2.answer_for(q).map(str::to_owned),
            &device,
            &mut rng,
        )
        .unwrap();
    assert_eq!(recv.object, b"still alive");

    sp.shutdown();
    dh.shutdown();
}

/// A client that *sends* within its own cap but whose peer enforces a
/// smaller one gets the typed remote error, not a hang.
#[test]
fn client_surfaces_server_side_cap() {
    let cfg = DaemonConfig { max_frame: 1024, ..DaemonConfig::default() };
    let (sp, dh) = boot_pair(cfg);
    let dh_client = DhClient::connect(dh.addr(), ClientConfig::default());

    use social_puzzles::osn::StorageApi;
    let err = dh_client.put(bytes::Bytes::from(vec![0u8; 8 * 1024])).unwrap_err();
    assert_eq!(err, social_puzzles::osn::OsnError::Transport);

    // Within the cap everything works.
    let url = dh_client.put(bytes::Bytes::from_static(b"small")).unwrap();
    assert_eq!(dh_client.get(&url).unwrap(), bytes::Bytes::from_static(b"small"));

    sp.shutdown();
    dh.shutdown();
}

/// Concurrent load from several threads against one daemon pair: every
/// cycle must succeed and recover its own object.
#[test]
fn concurrent_clients_share_and_receive() {
    let (sp, dh) = boot_pair(DaemonConfig::default());
    let ctx = context();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let ctx = ctx.clone();
            let sp = &sp;
            let dh = &dh;
            scope.spawn(move || {
                let app = remote_app(sp, dh);
                let c1 = Construction1::new();
                let device = DeviceProfile::pc();
                let mut rng = rand::thread_rng();
                for i in 0..3u64 {
                    let object = format!("thread {t} object {i}").into_bytes();
                    let share = app
                        .share_c1(
                            &c1,
                            UserId::from_raw(t * 2),
                            &object,
                            &ctx,
                            2,
                            &device,
                            None,
                            &mut rng,
                        )
                        .unwrap();
                    let ctx2 = ctx.clone();
                    let recv = app
                        .receive_c1(
                            &c1,
                            UserId::from_raw(t * 2 + 1),
                            &share,
                            move |q| ctx2.answer_for(q).map(str::to_owned),
                            &device,
                            &mut rng,
                        )
                        .unwrap();
                    assert_eq!(recv.object, object);
                }
            });
        }
    });

    sp.shutdown();
    dh.shutdown();
}
