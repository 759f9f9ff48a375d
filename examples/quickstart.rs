//! Quickstart: stand up a simulated site, run some traffic, and read the
//! dashboard the way a browser would.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hpcdash::core::api::recent_jobs::RecentJobs;
use hpcdash::SimSite;
use hpcdash_workload::ScenarioConfig;

fn main() {
    // 1. Build a small simulated site: cluster + slurmctld/slurmdbd +
    //    storage quota DB + news feed + a user population.
    let site = SimSite::build(ScenarioConfig::small());
    println!("cluster: {}", site.scenario.ctld.cluster_name());
    println!("nodes:   {}", site.scenario.ctld.query_nodes().len());
    println!("users:   {:?}", site.scenario.population.users);

    // 2. Run 30 minutes of simulated job traffic.
    site.warm_up(1_800);

    // 3. Serve the dashboard on an ephemeral port.
    let server = site.serve().expect("bind dashboard");
    println!("dashboard at {}\n", server.base_url());

    // 4. Open it with a headless browser as the first simulated user.
    let user = site.scenario.population.users[0].clone();
    let browser = site.browser(&server.base_url(), &user);
    let page = browser.load_homepage().expect("homepage");
    println!(
        "homepage: shell in {:?}, all data in {:?}, {}/5 widgets healthy",
        page.ttfb,
        page.total,
        page.healthy_widgets()
    );
    for (widget, result) in &page.widgets {
        match result {
            Ok(r) => println!("  {widget:<14} {:>9?}  ({:?})", r.perceived, r.outcome),
            Err(e) => println!("  {widget:<14} ERROR: {e}"),
        }
    }

    // 5. Peek at the queue through the same API the widgets use.
    let jobs: RecentJobs = browser
        .fetch_api("/api/recent_jobs")
        .and_then(|r| r.decode())
        .expect("recent jobs");
    println!("\nrecent jobs for {user}:");
    for j in &jobs.jobs {
        let tooltip = j.tooltip.as_deref().unwrap_or("");
        println!("  #{} {} [{}] {tooltip}", j.id, j.name, j.state);
    }

    // 6. A warm reload is served from the client cache — no backend traffic.
    let before = browser.network_fetch_count();
    let warm = browser.load_homepage().expect("warm homepage");
    println!(
        "\nwarm reload: all data in {:?} with {} new network requests",
        warm.total,
        browser.network_fetch_count() - before
    );
}
