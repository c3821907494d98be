//! D1 — wall-clock time in simulation code: `disallowed_methods`
//! (`Instant::now`, `SystemTime::now`) and `disallowed_types`.

pub fn stamp() -> u64 {
    #[expect(clippy::disallowed_methods, clippy::disallowed_types)]
    let t = std::time::Instant::now();
    let _ = t;
    0
}

/// The lint resolves paths, so a rename does not hide the clock (the
/// string match it replaces looked for the text `Instant::now`).
pub fn renamed() -> u64 {
    #[expect(clippy::disallowed_types)]
    use std::time::SystemTime as Wall;
    #[expect(clippy::disallowed_methods, clippy::disallowed_types)]
    let t = Wall::now();
    let _ = t;
    0
}
