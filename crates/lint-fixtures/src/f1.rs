//! F1 — panicking calls on the packet fast path: the six panic lints,
//! denied in `netpkt`'s and `lb-dataplane`'s `[lints]` tables and at the
//! top of each fast-path module elsewhere.

pub fn parse(b: &[u8]) -> u16 {
    #[expect(clippy::unwrap_used)]
    let hi = *b.first().unwrap();
    #[expect(clippy::expect_used)]
    let lo = *b.get(1).expect("two bytes");
    u16::from_be_bytes([hi, lo])
}

pub fn dispatch(kind: u8) -> u8 {
    match kind {
        0 => 0,
        #[expect(clippy::panic)]
        1 => panic!("malformed"),
        #[expect(clippy::unreachable)]
        2 => unreachable!(),
        #[expect(clippy::unimplemented)]
        3 => unimplemented!(),
        #[expect(clippy::todo)]
        _ => todo!(),
    }
}
