//! C2 — non-`Send` shared ownership (`Rc`) in a deterministic crate:
//! `disallowed_types`.

pub fn counted() -> u32 {
    #[expect(clippy::disallowed_types)]
    let r = std::rc::Rc::new(3u32);
    *r
}
