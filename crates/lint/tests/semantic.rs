//! Seeded-bug fixtures for the semantic (interprocedural) analyses. Each
//! fixture plants exactly one bug and the test pins the diagnostic's
//! `file:line:col` anchor plus the full printed call chain / taint path,
//! frame by frame — the contract CI consumes via `--json`.

use alem_lint::analyses::analyze_files;
use alem_lint::Finding;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

fn analyze(files: &[(&str, String)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.clone()))
        .collect();
    analyze_files(&owned)
}

fn frames(f: &Finding) -> Vec<(&str, &str, usize, &str)> {
    f.chain
        .iter()
        .map(|fr| {
            (
                fr.symbol.as_str(),
                fr.path.as_str(),
                fr.line,
                fr.note.as_str(),
            )
        })
        .collect()
}

/// The acceptance-criterion regression: an `unwrap()` reachable from a
/// pub core API — two private hops away, across files — yields exactly
/// one diagnostic anchored at the pub root, with the whole chain printed.
#[test]
fn panic_reach_prints_the_full_chain_from_pub_root_to_unwrap() {
    let out = analyze(&[
        (
            "crates/core/src/chain_entry.rs",
            fixture("sem_chain_entry.rs"),
        ),
        ("crates/core/src/chain_mid.rs", fixture("sem_chain_mid.rs")),
    ]);
    assert_eq!(out.len(), 1, "{out:#?}");
    let f = &out[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line, f.col),
        ("panic-reach", "crates/core/src/chain_entry.rs", 4, 8)
    );
    assert_eq!(
        f.message,
        "pub API `core::chain_entry::entry` can reach a panic: \
         core::chain_entry::entry -> core::chain_mid::mid -> core::chain_mid::deep: unwrap"
    );
    assert_eq!(
        frames(f),
        vec![
            (
                "core::chain_entry::entry",
                "crates/core/src/chain_entry.rs",
                4,
                ""
            ),
            (
                "core::chain_mid::mid",
                "crates/core/src/chain_mid.rs",
                3,
                ""
            ),
            (
                "core::chain_mid::deep",
                "crates/core/src/chain_mid.rs",
                8,
                "unwrap"
            ),
        ]
    );
}

/// An `allow` at the *source* site vets every path through it: the same
/// two-file chain with the `unwrap()` annotated produces nothing.
#[test]
fn allow_at_the_source_site_vets_every_path_through_it() {
    let mid = fixture("sem_chain_mid.rs").replace(
        "    x.unwrap()",
        "    // alem-lint: allow(panic-reach) -- fixture: vetted terminal\n    x.unwrap()",
    );
    let out = analyze(&[
        (
            "crates/core/src/chain_entry.rs",
            fixture("sem_chain_entry.rs"),
        ),
        ("crates/core/src/chain_mid.rs", mid),
    ]);
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn index_reach_flags_raw_indexing_in_orchestration_crates_only() {
    let out = analyze(&[("crates/serve/src/pool_index.rs", fixture("sem_index.rs"))]);
    assert_eq!(out.len(), 1, "{out:#?}");
    let f = &out[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line, f.col),
        ("index-reach", "crates/serve/src/pool_index.rs", 4, 8)
    );
    assert_eq!(
        f.message,
        "pub API `serve::pool_index::slot` can reach an unchecked slice index: \
         serve::pool_index::slot: slice index"
    );
    assert_eq!(
        frames(f),
        vec![(
            "serve::pool_index::slot",
            "crates/serve/src/pool_index.rs",
            5,
            "slice index"
        )]
    );
    // The same file in a numeric-kernel crate is the sanctioned idiom.
    let kernel = analyze(&[("crates/linalg/src/pool_index.rs", fixture("sem_index.rs"))]);
    assert!(kernel.is_empty(), "{kernel:#?}");
}

#[test]
fn determinism_taint_traces_wall_clock_into_sessionmachine_transition() {
    let out = analyze(&[
        (
            "crates/core/src/machine_hot.rs",
            fixture("sem_taint_machine.rs"),
        ),
        ("crates/datagen/src/noise.rs", fixture("sem_taint_src.rs")),
    ]);
    assert_eq!(out.len(), 1, "{out:#?}");
    let f = &out[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line, f.col),
        ("determinism-taint", "crates/core/src/machine_hot.rs", 9, 12)
    );
    assert_eq!(
        f.message,
        "nondeterminism can reach SessionMachine transition \
         `core::machine_hot::SessionMachine::step`: \
         core::machine_hot::SessionMachine::step -> datagen::noise::jitter: wall clock"
    );
    assert_eq!(
        frames(f),
        vec![
            (
                "core::machine_hot::SessionMachine::step",
                "crates/core/src/machine_hot.rs",
                9,
                ""
            ),
            (
                "datagen::noise::jitter",
                "crates/datagen/src/noise.rs",
                5,
                "wall clock"
            ),
        ]
    );
}

#[test]
fn determinism_taint_traces_wall_clock_into_select_impl() {
    let out = analyze(&[
        (
            "crates/core/src/select_hot.rs",
            fixture("sem_taint_select.rs"),
        ),
        ("crates/datagen/src/noise.rs", fixture("sem_taint_src.rs")),
    ]);
    assert_eq!(out.len(), 1, "{out:#?}");
    let f = &out[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line, f.col),
        ("determinism-taint", "crates/core/src/select_hot.rs", 9, 12)
    );
    assert_eq!(
        f.message,
        "nondeterminism can reach select impl \
         `core::select_hot::JitterStrategy::select`: \
         core::select_hot::JitterStrategy::select -> datagen::noise::jitter: wall clock"
    );
}

#[test]
fn lock_discipline_flags_serialization_under_registry_lock() {
    let out = analyze(&[(
        "crates/serve/src/registry_dump.rs",
        fixture("sem_locks_ser.rs"),
    )]);
    assert_eq!(out.len(), 1, "{out:#?}");
    let f = &out[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line, f.col),
        (
            "lock-discipline",
            "crates/serve/src/registry_dump.rs",
            17,
            9
        )
    );
    assert_eq!(
        f.message,
        "serialization `render_rows` while `sessions` lock is held: \
         serve::registry_dump::RegistryDump::dump"
    );
    assert_eq!(
        frames(f),
        vec![(
            "serve::registry_dump::RegistryDump::dump",
            "crates/serve/src/registry_dump.rs",
            17,
            "holds `sessions`; render_rows"
        )]
    );
}

#[test]
fn lock_discipline_flags_both_sides_of_an_order_cycle() {
    let out = analyze(&[(
        "crates/obs/src/lock_order.rs",
        fixture("sem_locks_order.rs"),
    )]);
    assert_eq!(out.len(), 2, "{out:#?}");
    let f1 = &out[0];
    assert_eq!(
        (f1.rule, f1.path.as_str(), f1.line, f1.col),
        ("lock-discipline", "crates/obs/src/lock_order.rs", 18, 29)
    );
    assert_eq!(
        f1.message,
        "lock-order cycle: `fleets` acquired while `corpora` is held in \
         `obs::lock_order::LockOrder::forward`, but the opposite order exists \
         elsewhere in the workspace"
    );
    assert_eq!(
        frames(f1),
        vec![(
            "obs::lock_order::LockOrder::forward",
            "crates/obs/src/lock_order.rs",
            18,
            "corpora -> fleets"
        )]
    );
    let f2 = &out[1];
    assert_eq!(
        (f2.rule, f2.path.as_str(), f2.line, f2.col),
        ("lock-discipline", "crates/obs/src/lock_order.rs", 25, 30)
    );
    assert_eq!(
        f2.message,
        "lock-order cycle: `corpora` acquired while `fleets` is held in \
         `obs::lock_order::LockOrder::backward`, but the opposite order exists \
         elsewhere in the workspace"
    );
}

#[test]
fn lock_discipline_flags_same_class_reacquisition() {
    let src = "pub struct R {\n    m: std::sync::Mutex<u32>,\n}\n\n\
               impl R {\n    pub fn f(&self) -> u32 {\n        \
               let a = self.m.lock().unwrap();\n        \
               let b = self.m.lock().unwrap();\n        *a + *b\n    }\n}\n";
    let out = analyze(&[("crates/obs/src/relock.rs", src.to_string())]);
    assert_eq!(out.len(), 1, "{out:#?}");
    let f = &out[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line, f.col),
        ("lock-discipline", "crates/obs/src/relock.rs", 8, 24)
    );
    assert_eq!(
        f.message,
        "lock `m` re-acquired in `obs::relock::R::f` while already held \
         (non-reentrant: self-deadlock)"
    );
}
