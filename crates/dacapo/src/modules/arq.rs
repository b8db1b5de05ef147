//! Acknowledgement / retransmission (ARQ) mechanisms.
//!
//! One implementation covers two catalogue entries:
//!
//! * **`irq`** — *idle repeat request*, the stop-and-wait protocol from the
//!   paper's measurements: window size 1, so every packet waits for its
//!   acknowledgement before the next may leave. Figure 9 shows (and our
//!   benches reproduce) how badly this flow control caps throughput.
//! * **`go-back-n`** — the same header format with a larger sliding
//!   window; the receiver accepts only in-order packets and acknowledges
//!   cumulatively, the sender retransmits the whole window on timeout.
//!
//! Wire header (prepended, 5 bytes): `ptype (1) | seq (4, BE)` where
//! `ptype` 0 = DATA, 1 = ACK. The ACK's `seq` is the receiver's next
//! expected sequence number (cumulative).
//!
//! Retransmission timing is tick-driven: the runtime calls
//! [`Module::on_tick`] periodically; after [`ArqModule::RETRANSMIT_TICKS`]
//! ticks without progress the window is resent (go-back-N).

use crate::module::{Module, Outputs};
use crate::packet::{Packet, PacketKind};
use std::collections::BTreeMap;
use std::time::Duration;

const PTYPE_DATA: u8 = 0;
const PTYPE_ACK: u8 = 1;

/// Go-back-N ARQ; window size 1 gives idle-repeat-request.
#[derive(Debug)]
pub struct ArqModule {
    name: &'static str,
    window_size: usize,
    /// Sender: next sequence number to assign.
    next_seq: u32,
    /// Sender: stamped, unacknowledged packets.
    window: BTreeMap<u32, Packet>,
    /// Sender: ticks that found the window non-empty since the last ACK.
    /// The runtime ticks on a fixed cadence whether or not packets are
    /// flowing, so this counts timer periods without an acknowledgement,
    /// never idle time or packets sent.
    ticks_without_progress: u32,
    /// Receiver: next in-order sequence expected.
    next_expected: u32,
    retransmissions: u64,
    out_of_order_dropped: u64,
    duplicates_dropped: u64,
}

impl ArqModule {
    /// Ticks without progress before the window is retransmitted.
    pub const RETRANSMIT_TICKS: u32 = 3;

    /// Creates the stop-and-wait (idle-repeat-request) variant.
    pub fn idle_repeat_request() -> Self {
        ArqModule::with_window("irq", 1)
    }

    /// Creates a go-back-N variant with the given window.
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero.
    pub fn go_back_n(window_size: usize) -> Self {
        ArqModule::with_window("go-back-n", window_size)
    }

    fn with_window(name: &'static str, window_size: usize) -> Self {
        assert!(window_size > 0, "arq window must be nonzero");
        ArqModule {
            name,
            window_size,
            next_seq: 0,
            window: BTreeMap::new(),
            ticks_without_progress: 0,
            next_expected: 0,
            retransmissions: 0,
            out_of_order_dropped: 0,
            duplicates_dropped: 0,
        }
    }

    /// Configured window size.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Packets currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Total retransmitted packets.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Out-of-order arrivals dropped (go-back-N discards them).
    pub fn out_of_order_dropped(&self) -> u64 {
        self.out_of_order_dropped
    }

    /// Duplicate arrivals dropped (and re-acknowledged).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    fn send_ack(&self, out: &mut Outputs) {
        let mut ack = Packet::control(&[]);
        let mut header = [0u8; 5];
        header[0] = PTYPE_ACK;
        header[1..5].copy_from_slice(&self.next_expected.to_be_bytes());
        ack.push_header(&header);
        out.push_down(ack);
    }
}

impl Module for ArqModule {
    fn name(&self) -> &str {
        self.name
    }

    fn ready_for_down(&self) -> bool {
        self.window.len() < self.window_size
    }

    fn is_idle(&self) -> bool {
        self.window.is_empty()
    }

    fn process_down(&mut self, mut pkt: Packet, out: &mut Outputs) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let mut header = [0u8; 5];
        header[0] = PTYPE_DATA;
        header[1..5].copy_from_slice(&seq.to_be_bytes());
        pkt.push_header(&header);
        // lint: allow(L007, retransmit window must own its copy)
        self.window.insert(seq, pkt.clone());
        out.push_down(pkt);
    }

    fn process_up(&mut self, mut pkt: Packet, out: &mut Outputs) {
        let Some(header) = pkt.pop_header(5) else {
            return; // malformed: no ARQ header
        };
        let seq = u32::from_be_bytes([header[1], header[2], header[3], header[4]]);
        match header[0] {
            PTYPE_DATA => {
                let delta = seq.wrapping_sub(self.next_expected);
                if delta == 0 {
                    self.next_expected = self.next_expected.wrapping_add(1);
                    pkt.set_kind(PacketKind::Data);
                    out.push_up(pkt);
                    self.send_ack(out);
                } else if delta > u32::MAX / 2 {
                    // Old duplicate: re-acknowledge so the sender advances.
                    self.duplicates_dropped += 1;
                    self.send_ack(out);
                } else {
                    // Ahead of the cursor: go-back-N drops and re-acks.
                    self.out_of_order_dropped += 1;
                    self.send_ack(out);
                }
            }
            PTYPE_ACK => {
                // Cumulative: every sequence strictly below `seq` is
                // acknowledged (wrapping comparison: s < seq).
                self.window
                    .retain(|&s, _| seq.wrapping_sub(s).wrapping_sub(1) >= u32::MAX / 2);
                self.ticks_without_progress = 0;
            }
            _ => {} // unknown ptype: drop
        }
    }

    fn on_tick(&mut self, _now: Duration, out: &mut Outputs) {
        if self.window.is_empty() {
            self.ticks_without_progress = 0;
            return;
        }
        self.ticks_without_progress += 1;
        if self.ticks_without_progress >= Self::RETRANSMIT_TICKS {
            self.ticks_without_progress = 0;
            for pkt in self.window.values() {
                self.retransmissions += 1;
                // lint: allow(L007, retransmission resends an owned copy)
                out.push_down(pkt.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(tx: &mut ArqModule, payload: &[u8]) -> Packet {
        let mut out = Outputs::new();
        tx.process_down(Packet::data(payload), &mut out);
        out.take_down().remove(0)
    }

    /// Feeds a wire packet into `rx`, returning (delivered-up, acks-down).
    fn feed(rx: &mut ArqModule, pkt: Packet) -> (Vec<Packet>, Vec<Packet>) {
        let mut out = Outputs::new();
        rx.process_up(pkt, &mut out);
        (out.take_up(), out.take_down())
    }

    #[test]
    fn in_order_delivery_with_acks() {
        let mut tx = ArqModule::go_back_n(4);
        let mut rx = ArqModule::go_back_n(4);
        for i in 0..3u8 {
            let wire = stamp(&mut tx, &[i]);
            let (up, acks) = feed(&mut rx, wire);
            assert_eq!(up.len(), 1);
            assert_eq!(up[0].payload(), &[i]);
            assert_eq!(acks.len(), 1);
            // Deliver the ack back to the sender.
            let (u, d) = feed(&mut tx, acks.into_iter().next().unwrap());
            assert!(u.is_empty() && d.is_empty());
        }
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn irq_window_is_one() {
        let mut tx = ArqModule::idle_repeat_request();
        assert_eq!(tx.window_size(), 1);
        assert!(tx.ready_for_down());
        let _wire = stamp(&mut tx, b"x");
        assert!(
            !tx.ready_for_down(),
            "stop-and-wait must block after one packet"
        );
    }

    #[test]
    fn window_fills_and_drains() {
        let mut tx = ArqModule::go_back_n(2);
        let _w0 = stamp(&mut tx, b"0");
        let _w1 = stamp(&mut tx, b"1");
        assert!(!tx.ready_for_down());
        // Cumulative ACK for both (next expected = 2).
        let mut rx = ArqModule::go_back_n(2);
        rx.next_expected = 2;
        let mut out = Outputs::new();
        rx.send_ack(&mut out);
        let ack = out.take_down().remove(0);
        feed(&mut tx, ack);
        assert_eq!(tx.in_flight(), 0);
        assert!(tx.ready_for_down());
    }

    #[test]
    fn out_of_order_dropped_and_reacked() {
        let mut tx = ArqModule::go_back_n(4);
        let mut rx = ArqModule::go_back_n(4);
        let _p0 = stamp(&mut tx, b"0"); // "lost"
        let p1 = stamp(&mut tx, b"1");
        let (up, acks) = feed(&mut rx, p1);
        assert!(up.is_empty());
        assert_eq!(rx.out_of_order_dropped(), 1);
        // The re-ack still says "expecting 0".
        assert_eq!(acks.len(), 1);
    }

    #[test]
    fn duplicate_reacked() {
        let mut tx = ArqModule::go_back_n(4);
        let mut rx = ArqModule::go_back_n(4);
        let p0 = stamp(&mut tx, b"0");
        let dup = p0.clone();
        let (up, _) = feed(&mut rx, p0);
        assert_eq!(up.len(), 1);
        let (up2, acks2) = feed(&mut rx, dup);
        assert!(up2.is_empty());
        assert_eq!(rx.duplicates_dropped(), 1);
        assert_eq!(acks2.len(), 1, "duplicates must be re-acknowledged");
    }

    #[test]
    fn timeout_retransmits_window() {
        let mut tx = ArqModule::go_back_n(4);
        let _w = stamp(&mut tx, b"data");
        let mut out = Outputs::new();
        for _ in 0..ArqModule::RETRANSMIT_TICKS {
            tx.on_tick(Duration::ZERO, &mut out);
        }
        let resent = out.take_down();
        assert_eq!(resent.len(), 1);
        assert_eq!(tx.retransmissions(), 1);
        // The retransmitted frame is identical to the original (header
        // included), so the receiver treats it normally.
        let mut rx = ArqModule::go_back_n(4);
        let (up, _) = feed(&mut rx, resent.into_iter().next().unwrap());
        assert_eq!(up[0].payload(), b"data");
    }

    #[test]
    fn no_retransmit_while_progress() {
        let mut tx = ArqModule::go_back_n(4);
        let _w = stamp(&mut tx, b"x");
        let mut out = Outputs::new();
        tx.on_tick(Duration::ZERO, &mut out); // 1 tick: below threshold
        assert!(out.take_down().is_empty());
        assert_eq!(tx.retransmissions(), 0);
    }

    #[test]
    fn an_ack_between_ticks_restarts_the_count() {
        let mut tx = ArqModule::go_back_n(4);
        let mut rx = ArqModule::go_back_n(4);
        let p0 = stamp(&mut tx, b"0");
        let _p1 = stamp(&mut tx, b"1"); // stays unacknowledged
        let mut out = Outputs::new();
        for _ in 1..ArqModule::RETRANSMIT_TICKS {
            tx.on_tick(Duration::ZERO, &mut out);
        }
        let (_, acks) = feed(&mut rx, p0);
        feed(&mut tx, acks.into_iter().next().unwrap());
        assert_eq!(tx.in_flight(), 1);
        for _ in 1..ArqModule::RETRANSMIT_TICKS {
            tx.on_tick(Duration::ZERO, &mut out);
        }
        assert!(
            out.take_down().is_empty(),
            "the ACK did not restart the count"
        );
        tx.on_tick(Duration::ZERO, &mut out);
        assert_eq!(out.take_down().len(), 1, "p1 resent after a full timeout");
    }

    #[test]
    fn recovery_after_loss_via_retransmit() {
        let mut tx = ArqModule::go_back_n(4);
        let mut rx = ArqModule::go_back_n(4);
        // p0 lost; p1 arrives out of order and is dropped; then timeout
        // resends both; receiver accepts in order.
        let p0 = stamp(&mut tx, b"0");
        let p1 = stamp(&mut tx, b"1");
        drop(p0);
        let (_, _) = feed(&mut rx, p1);
        let mut out = Outputs::new();
        for _ in 0..ArqModule::RETRANSMIT_TICKS {
            tx.on_tick(Duration::ZERO, &mut out);
        }
        let resent = out.take_down();
        assert_eq!(resent.len(), 2);
        let mut delivered = Vec::new();
        for pkt in resent {
            let (up, acks) = feed(&mut rx, pkt);
            delivered.extend(up);
            for ack in acks {
                feed(&mut tx, ack);
            }
        }
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].payload(), b"0");
        assert_eq!(delivered[1].payload(), b"1");
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn malformed_header_ignored() {
        let mut rx = ArqModule::go_back_n(4);
        let (up, down) = feed(&mut rx, Packet::from_wire(b"abc", PacketKind::Data));
        assert!(up.is_empty() && down.is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_rejected() {
        let _ = ArqModule::go_back_n(0);
    }
}
