// fixture: crate=tps-sim path=crates/tps-sim/src/machine.rs

// `unwrap`/`expect`/`panic!` here are clippy's to deny (machine.rs carries
// the inner attribute); tps-lint owns the assertion macros.
fn step(slot: usize, live: &[usize]) -> usize {
    assert!(slot < 64); //~ ERROR panic-free-fault-path
    assert_eq!(live.len(), 64); //~ ERROR panic-free-fault-path
    assert_ne!(slot, 63); //~ ERROR panic-free-fault-path
    debug_assert!(live.contains(&slot)); //~ ERROR panic-free-fault-path
    debug_assert_eq!(live[0], 0); //~ ERROR panic-free-fault-path
    debug_assert_ne!(live[1], slot); //~ ERROR panic-free-fault-path
    slot
}
