//! Reconfiguration leaks no threads.
//!
//! Each reconfiguration runs the new stack on the old stack's threads, so
//! the live thread count of a connection pair stays bounded by its
//! largest graph however often it swaps, and `close` joins every thread.
//! This is the only test in its binary so no other test's threads disturb
//! the process-wide count read from `/proc/self/task`.

use bytes::Bytes;
use dacapo::catalog::MechanismCatalog;
use dacapo::graph::ModuleGraph;
use dacapo::tlayer::loopback_pair;
use dacapo::Connection;
use std::time::Duration;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .count()
}

#[test]
fn reconfiguration_reuses_threads_and_close_joins_them() {
    let graphs = [
        ModuleGraph::from_ids(["go-back-n", "crc32"]),
        ModuleGraph::from_ids(["parity"]),
    ];
    let catalog = MechanismCatalog::standard();
    let baseline = live_threads();
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(graphs[0].clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graphs[0].clone(), tb, &catalog).unwrap();

    // Two modules plus two pumps per side; the [parity] graph leaves one
    // spare per side.
    let bound = baseline + 8;
    for i in 0..200 {
        let graph = &graphs[(i + 1) % 2];
        a.reconfigure(graph.clone()).unwrap();
        b.reconfigure(graph.clone()).unwrap();
        let live = live_threads();
        assert!(live <= bound, "swap {i}: {live} threads live, bound {bound}");
        if i % 50 == 0 {
            a.endpoint().send(Bytes::from(vec![i as u8; 64])).unwrap();
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&got[..], &[i as u8; 64][..]);
        }
    }

    a.close();
    b.close();
    assert_eq!(live_threads(), baseline, "close left threads behind");
}
