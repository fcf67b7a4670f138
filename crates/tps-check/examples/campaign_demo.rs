//! Runs a fault-injection campaign and prints the report.
//!
//! ```sh
//! cargo run -p tps-check --release --example campaign_demo
//! cargo run -p tps-check --release --example campaign_demo -- 200 0.6
//! ```
//!
//! Optional args: `<schedules> <uniform fault probability>`.

use tps_check::campaign::{run_campaign, CampaignConfig};
use tps_check::FaultPlanConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let schedules: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let mut cfg = CampaignConfig {
        schedules,
        ..CampaignConfig::default()
    };
    if let Some(p) = args.next().and_then(|a| a.parse::<f64>().ok()) {
        cfg.plan = FaultPlanConfig::uniform(0, p);
    }

    println!(
        "campaign: {} schedules x {} ops, {} MB memory, fault probabilities \
         buddy {:.2} / reserve {:.2} / compaction {:.2} / shootdown {:.2}",
        cfg.schedules,
        cfg.ops_per_schedule,
        cfg.mem_bytes >> 20,
        cfg.plan.buddy_alloc,
        cfg.plan.reserve_span,
        cfg.plan.compaction_step,
        cfg.plan.shootdown_deliver,
    );
    let report = run_campaign(&cfg);
    println!("schedules run        : {}", report.schedules_run);
    println!("ops executed         : {}", report.ops_run);
    println!("faults injected      : {}", report.faults_injected);
    println!("page faults handled  : {}", report.os.faults);
    println!("promotions           : {}", report.os.promotions);
    println!("4K fallbacks         : {}", report.os.fallback_4k);
    println!("  of which OOM-caused: {}", report.os.oom_fallbacks);
    println!("compaction aborts    : {}", report.os.compaction_aborts);
    println!("shootdowns retried   : {}", report.os.shootdowns_retried);
    println!("legit OOM errors     : {}", report.oom_events);
    if report.violations.is_empty() {
        println!("invariant violations : none");
    } else {
        println!(
            "invariant violations : {} (+{} truncated)",
            report.violations.len(),
            report.violations_truncated
        );
        for v in &report.violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }
}
