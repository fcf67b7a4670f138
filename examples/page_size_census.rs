//! Page-size census (paper Fig. 18): run the whole evaluation suite under
//! TPS and print which page sizes each benchmark ends up using — the
//! small number of tailored pages is what makes the 32-entry TPS TLB
//! sufficient.
//!
//! ```sh
//! cargo run --release --example page_size_census
//! ```

use tps::sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec};
use tps::wl::{default_suite_seed, suite_names, SuiteScale};

fn main() {
    let scale = SuiteScale::Small;
    println!(
        "{:>10}  {:>6}  {:>8}  census (size x count)",
        "benchmark", "pages", "largest"
    );
    for name in suite_names() {
        let config =
            MachineConfig::for_mechanism(Mechanism::Tps).with_memory(scale.recommended_memory());
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::suite(name, scale, default_suite_seed(name)))
            .build()
            .expect("one tenant builds")
            .run()
            .into_solo();
        let total: u64 = stats.page_census.values().sum();
        let largest = stats
            .page_census
            .keys()
            .max()
            .map(|o| o.label())
            .unwrap_or_default();
        let census = stats
            .page_census
            .iter()
            .map(|(o, n)| format!("{}x{}", o.label(), n))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{name:>10}  {total:>6}  {largest:>8}  {census}");
    }
    println!("\nCompare: at 4 KB only, a 256 MB footprint needs 65,536 PTEs;");
    println!("TPS covers the same memory with a handful of tailored pages.");
}
