//! Helpers shared by the live-server suites — and, through a `#[path]`
//! include, by the deterministic engine tests in `crates/core/tests`.
#![allow(dead_code)]

use spamaware_core::{LiveServer, LiveSnapshot};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Clamps a test client's kernel receive buffer so its TCP window
/// actually closes when it stops reading — receive-buffer autotuning
/// would otherwise absorb tens of megabytes and hide every
/// backpressure path the stall suites exist to exercise.
pub fn clamp_rcvbuf(stream: &TcpStream) {
    rawpoll::set_recv_buffer(stream.as_raw_fd(), 4096).expect("clamp rcvbuf");
}

/// Connection conservation (DESIGN.md §14.3): every accepted connection
/// has reached exactly one terminal outcome, except the `inflight` ones
/// still being served.
pub fn assert_conserved(snap: &LiveSnapshot, inflight: i64) {
    assert_eq!(
        snap.unaccounted(),
        inflight,
        "accepted connections neither in flight nor in exactly one terminal counter: {snap:?}"
    );
}

/// Waits (up to ~5 s) for a live server to quiesce — every client gone,
/// the in-flight gauge at zero — then asserts conservation. Call it after
/// dropping the test's clients and before `shutdown()`, which cuts
/// whatever is left without accounting for it.
pub fn assert_conserved_at_quiesce(srv: &LiveServer) {
    for _ in 0..500 {
        if srv.inflight() == 0 && srv.stats().snapshot().unaccounted() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(srv.inflight(), 0, "server never quiesced");
    assert_conserved(&srv.stats().snapshot(), 0);
}
