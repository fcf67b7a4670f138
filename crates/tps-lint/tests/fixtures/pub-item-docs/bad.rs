// fixture: crate=tps-core path=crates/tps-core/src/fixture.rs

pub fn undocumented() {} //~ ERROR pub-item-docs

pub struct Bare { //~ ERROR pub-item-docs
    pub field: u64,
}

pub const LIMIT: u64 = 7; //~ ERROR pub-item-docs

tps_core::counter_table! {
    #[derive(Clone, Copy, Default)]
    pub struct BareCounters { //~ ERROR pub-item-docs
        pub hits: u64,
    }
}
