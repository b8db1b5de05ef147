//! CRC16 and CRC32 error detection, implemented from scratch.
//!
//! * CRC16: CCITT polynomial `0x1021`, MSB-first, initial value `0xFFFF`
//!   (X.25 flavour without final XOR).
//! * CRC32: IEEE 802.3 polynomial (reflected `0xEDB88320`), initial value
//!   and final XOR `0xFFFFFFFF` — the ubiquitous zlib CRC.
//!
//! Both kernels are table-driven and fold a word at a time ("slicing-by-N"):
//! table `k` holds the CRC contribution of a byte followed by `k` zero
//! bytes, so by linearity one step XORs the state into the leading bytes
//! of a block and looks up every byte of the block independently —
//! CRC32 consumes 16 bytes per step, CRC16 8 — with a bytewise tail. The
//! tables are computed at compile time. The checksum is the same as the
//! textbook bytewise/bitwise algorithm, bit for bit; only the speed
//! differs.

use crate::module::{Module, Outputs};
use crate::packet::Packet;

/// Bytes CRC16 folds per step.
const CRC16_SLICES: usize = 8;
/// Bytes CRC32 folds per step.
const CRC32_SLICES: usize = 16;

// The tables are `static` items built by `const fn`s: evaluated at compile
// time like a `const`, but one copy in read-only memory rather than a
// 16 KiB value materialised wherever a `const` would be named.

/// `CRC16_TABLES[k][b]`: CRC16 (zero initial value) of byte `b` followed
/// by `k` zero bytes.
static CRC16_TABLES: [[u16; 256]; CRC16_SLICES] = crc16_tables();
/// `CRC32_TABLES[k][b]`: reflected CRC32 register contribution of byte `b`
/// followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; CRC32_SLICES] = crc32_tables();

const fn crc16_tables() -> [[u16; 256]; CRC16_SLICES] {
    let mut t = [[0u16; 256]; CRC16_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = (i as u16) << 8;
        let mut k = 0;
        while k < 8 {
            c = if c & 0x8000 != 0 {
                (c << 1) ^ 0x1021
            } else {
                c << 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC16_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const fn crc32_tables() -> [[u32; 256]; CRC32_SLICES] {
    let mut t = [[0u32; 256]; CRC32_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC32_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CCITT CRC16 of `data`.
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut crc: u16 = 0xFFFF;
    let mut blocks = data.chunks_exact(CRC16_SLICES);
    for b in &mut blocks {
        // MSB-first: the register lines up with the block's first two
        // bytes; byte `j` is followed by `7 - j` more in the block.
        let [hi, lo] = crc.to_be_bytes();
        crc = t[7][(b[0] ^ hi) as usize]
            ^ t[6][(b[1] ^ lo) as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc << 8) ^ t[0][((crc >> 8) as u8 ^ byte) as usize];
    }
    crc
}

/// Computes the IEEE CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c: u32 = 0xFFFF_FFFF;
    let mut blocks = data.chunks_exact(CRC32_SLICES);
    for b in &mut blocks {
        // Reflected: the register lines up with the block's first four
        // bytes, least significant first.
        let [c0, c1, c2, c3] = c.to_le_bytes();
        c = t[15][(b[0] ^ c0) as usize]
            ^ t[14][(b[1] ^ c1) as usize]
            ^ t[13][(b[2] ^ c2) as usize]
            ^ t[12][(b[3] ^ c3) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        c = t[0][(c as u8 ^ byte) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Which CRC a [`CrcModule`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrcKind {
    /// 16-bit CCITT.
    Crc16,
    /// 32-bit IEEE.
    Crc32,
}

impl CrcKind {
    fn trailer_len(self) -> usize {
        match self {
            CrcKind::Crc16 => 2,
            CrcKind::Crc32 => 4,
        }
    }
}

/// Error detection via CRC trailer; corrupted packets are dropped.
#[derive(Debug)]
pub struct CrcModule {
    kind: CrcKind,
    name: &'static str,
    corrupted_dropped: u64,
}

impl CrcModule {
    /// Creates a CRC module of the given strength.
    pub fn new(kind: CrcKind) -> Self {
        let name = match kind {
            CrcKind::Crc16 => "crc16",
            CrcKind::Crc32 => "crc32",
        };
        CrcModule {
            kind,
            name,
            corrupted_dropped: 0,
        }
    }

    /// Packets dropped due to checksum mismatch.
    pub fn corrupted_dropped(&self) -> u64 {
        self.corrupted_dropped
    }
}

impl Module for CrcModule {
    fn name(&self) -> &str {
        self.name
    }

    fn process_down(&mut self, mut pkt: Packet, out: &mut Outputs) {
        match self.kind {
            CrcKind::Crc16 => {
                let c = crc16(pkt.payload());
                pkt.push_trailer(&c.to_be_bytes());
            }
            CrcKind::Crc32 => {
                let c = crc32(pkt.payload());
                pkt.push_trailer(&c.to_be_bytes());
            }
        }
        out.push_down(pkt);
    }

    fn process_up(&mut self, mut pkt: Packet, out: &mut Outputs) {
        let n = self.kind.trailer_len();
        let Some(trailer) = pkt.pop_trailer(n) else {
            self.corrupted_dropped += 1;
            return;
        };
        let ok = match self.kind {
            CrcKind::Crc16 => {
                let expected = u16::from_be_bytes([trailer[0], trailer[1]]);
                crc16(pkt.payload()) == expected
            }
            CrcKind::Crc32 => {
                let expected = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
                crc32(pkt.payload()) == expected
            }
        };
        if ok {
            out.push_up(pkt);
        } else {
            self.corrupted_dropped += 1;
        }
    }
}

#[cfg(test)]
#[path = "../../tests/support/crc_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{crc16_bitwise, crc32_bytewise};
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // Standard zlib test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc16_known_vector() {
        // CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    /// Deterministic non-repeating filler, so no block looks like another.
    fn filler(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn kernels_match_reference_around_block_boundaries() {
        // Empty, sub-block, exactly one CRC16 block (8) and one CRC32
        // block (16) with their neighbours, a block plus one, and a large
        // payload that is a whole number of blocks.
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 65, 65_536] {
            let data = filler(len);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "crc32, len {len}");
            assert_eq!(crc16(&data), crc16_bitwise(&data), "crc16, len {len}");
        }
    }

    #[test]
    fn kernels_match_reference_at_every_offset() {
        // Every start alignment and every tail length up to two blocks.
        let data = filler(256);
        for start in 0..CRC32_SLICES {
            for len in 0..=2 * CRC32_SLICES + 1 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "crc32 [{start}; {len}]");
                assert_eq!(crc16(s), crc16_bitwise(s), "crc16 [{start}; {len}]");
            }
        }
    }

    /// Frames `CrcModule::process_down` produced with the bytewise and
    /// bitwise kernels; any change to the trailer bytes is a wire break.
    #[test]
    fn golden_wire_frames() {
        let payload = b"Da CaPo configures layer C protocols in real time, 0123456789.";
        for (kind, trailer) in [
            (CrcKind::Crc16, &[0x21, 0xA3][..]),
            (CrcKind::Crc32, &[0x30, 0x10, 0xFC, 0xB5][..]),
        ] {
            let mut out = Outputs::new();
            CrcModule::new(kind).process_down(Packet::data(payload), &mut out);
            let frame = out.take_down().remove(0);
            assert_eq!(
                frame.payload(),
                [&payload[..], trailer].concat(),
                "{kind:?}"
            );
        }
    }

    fn round_trip(kind: CrcKind, payload: &[u8]) -> Option<Vec<u8>> {
        let mut m = CrcModule::new(kind);
        let mut out = Outputs::new();
        m.process_down(Packet::data(payload), &mut out);
        let wire = out.take_down().remove(0);
        m.process_up(wire, &mut out);
        out.take_up().pop().map(|p| p.payload().to_vec())
    }

    #[test]
    fn clean_round_trip_both_kinds() {
        assert_eq!(round_trip(CrcKind::Crc16, b"data").unwrap(), b"data");
        assert_eq!(round_trip(CrcKind::Crc32, b"data").unwrap(), b"data");
    }

    #[test]
    fn corruption_detected_both_kinds() {
        for kind in [CrcKind::Crc16, CrcKind::Crc32] {
            let mut m = CrcModule::new(kind);
            let mut out = Outputs::new();
            m.process_down(Packet::data(b"payload"), &mut out);
            let mut wire = out.take_down().remove(0);
            wire.payload_mut()[3] ^= 0xFF;
            m.process_up(wire, &mut out);
            assert!(out.take_up().is_empty(), "{kind:?} missed corruption");
            assert_eq!(m.corrupted_dropped(), 1);
        }
    }

    #[test]
    fn trailer_lengths() {
        let mut out = Outputs::new();
        CrcModule::new(CrcKind::Crc16).process_down(Packet::data(b"xx"), &mut out);
        assert_eq!(out.take_down()[0].len(), 4);
        CrcModule::new(CrcKind::Crc32).process_down(Packet::data(b"xx"), &mut out);
        assert_eq!(out.take_down()[0].len(), 6);
    }

    #[test]
    fn short_packet_dropped_not_panicking() {
        let mut m = CrcModule::new(CrcKind::Crc32);
        let mut out = Outputs::new();
        m.process_up(
            Packet::from_wire(b"ab", crate::packet::PacketKind::Data),
            &mut out,
        );
        assert!(out.take_up().is_empty());
        assert_eq!(m.corrupted_dropped(), 1);
    }
}
