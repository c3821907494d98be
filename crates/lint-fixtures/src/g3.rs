//! G3 — an event sequence number truncated by a narrowing cast:
//! `cast_possible_truncation`, denied on every target of `netsim`,
//! `nettcp` and `lb-dataplane`, their integration tests included.

pub fn slot(seq: u64) -> usize {
    #[expect(clippy::cast_possible_truncation)]
    let slot = seq as usize;
    slot
}

pub fn wire(seq: u64) -> u32 {
    #[expect(clippy::cast_possible_truncation)]
    let wire = seq as u32;
    wire
}
