//! C1 — interior mutability in a deterministic crate: `disallowed_types`.

pub fn shared() -> u32 {
    #[expect(clippy::disallowed_types)]
    let c = std::cell::RefCell::new(7u32);
    let v = *c.borrow();
    v
}

pub fn counted() -> u32 {
    #[expect(clippy::disallowed_types)]
    let c = std::cell::Cell::new(7u32);
    c.get()
}
