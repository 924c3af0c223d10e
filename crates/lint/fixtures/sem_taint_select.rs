//! Determinism-taint seeded bug: a strategy's `select` impl that breaks
//! ties with ambient wall-clock jitter out of `alem_datagen`.

/// Strategy double (the real ones live in `strategy`).
pub struct JitterStrategy;

impl JitterStrategy {
    /// Picks the next example to label, seeded by ambient jitter.
    pub fn select(&mut self) -> u64 {
        alem_datagen::noise::jitter()
    }
}
