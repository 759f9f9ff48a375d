//! A driver costs the traffic it plays, not the window it covers: arrivals
//! are drawn when the clock reaches them, so building a driver for ten
//! simulated days allocates what building one for an hour does.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_testkit::{counted, CountingAlloc};
use hpcdash_workload::{Scenario, ScenarioConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_ten_day_driver_allocates_what_a_one_hour_driver_does() {
    let site = Scenario::build(ScenarioConfig {
        free_daemons: true,
        ..ScenarioConfig::campus()
    });
    let (_hour, one_hour) = counted(|| site.driver(3_600));
    let (_days, ten_days) = counted(|| site.driver(10 * 86_400));
    // The campus site draws about 2 600 arrivals a day: pre-building ten
    // days of them made hundreds of thousands of allocations.
    assert!(
        ten_days <= one_hour + 8,
        "driver(10 days) made {ten_days} allocations, driver(1 hour) {one_hour}"
    );
}
