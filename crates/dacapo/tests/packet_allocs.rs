//! Data-path allocation accounting for `Packet`.
//!
//! The recorded-allocation counter is process-global, so this binary
//! holds a single test: nothing else allocates packets while it meters.

use bytes::Bytes;
use cool_telemetry::allocs::buffer_allocs;
use dacapo::packet::{Packet, PacketKind};

/// Recorded allocations while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = buffer_allocs();
    let value = f();
    (buffer_allocs() - before, value)
}

#[test]
fn packet_copies_are_recorded_and_in_place_edits_are_not() {
    let (n, mut owned) = allocs_during(|| Packet::data(&[1u8; 4096]));
    assert_eq!(n, 1, "building an owned packet");

    // A header and a checksum trailer fit the headroom and tailroom.
    let (n, ()) = allocs_during(|| {
        owned.push_header(&[0u8; 8]);
        owned.push_trailer(&[0u8; 4]);
    });
    assert_eq!(n, 0, "header/trailer push within head- and tailroom");

    // An ARQ window copy of owned storage is a real buffer copy.
    let (n, copy) = allocs_during(|| owned.clone());
    assert_eq!(n, 1, "cloning owned storage");
    assert_eq!(copy.payload(), owned.payload());

    // Cloning a shared view only bumps a reference count.
    let shared = Packet::from_shared(Bytes::from(vec![2u8; 4096]), PacketKind::Data);
    let (n, view) = allocs_during(|| shared.clone());
    assert_eq!(n, 0, "cloning shared storage");
    assert_eq!(view.payload(), shared.payload());

    // Copy-on-write of a shared view is one copy; the trailer after it
    // rides the fresh buffer's tailroom.
    let mut shared = shared;
    let (n, ()) = allocs_during(|| {
        shared.push_header(&[0u8; 8]);
        shared.push_trailer(&[0u8; 4]);
    });
    assert_eq!(n, 1, "copy-on-write then trailer");
}
