//! Reference CRC kernels: the straightforward one-byte-per-step CRC32 and
//! one-bit-per-step CRC16 that `dacapo::modules::crc` replaced with its
//! word-at-a-time kernels. Test-only oracle, shared by the module's unit
//! tests and the property tests; never compiled into the library.

/// CCITT CRC16 (`0x1021`, MSB-first, initial `0xFFFF`), bit by bit.
pub fn crc16_bitwise(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// IEEE CRC32 (reflected `0xEDB88320`), one table lookup per byte.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c: u32 = 0xFFFF_FFFF;
    for &byte in data {
        c = table[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}
