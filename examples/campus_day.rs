//! A morning on a campus-scale cluster (Figures 2 and 3 of the paper,
//! regenerated): run two simulated hours of production-like traffic, then
//! print what the homepage widgets and the My Jobs page show.
//!
//! ```sh
//! cargo run --release --example campus_day
//! ```

use hpcdash::SimSite;
use hpcdash_core::efficiency::percent;
use hpcdash_core::pages;
use hpcdash_http::HttpClient;
use hpcdash_workload::ScenarioConfig;

fn main() {
    let mut cfg = ScenarioConfig::campus();
    cfg.free_daemons = true; // fast daemons: we're inspecting content, not latency
    let site = SimSite::build(cfg);
    println!(
        "simulating {}: {} nodes, {} users, {} accounts",
        site.scenario.ctld.cluster_name(),
        site.scenario.ctld.query_nodes().len(),
        site.scenario.population.users.len(),
        site.scenario.population.accounts.len()
    );
    print!("running 2h of cluster traffic... ");
    site.warm_up(2 * 3_600);
    println!(
        "done ({} jobs archived, {} active)",
        site.scenario.dbd.archived_count(),
        site.scenario
            .ctld
            .query_jobs(&hpcdash_slurm::ctld::JobQuery::all())
            .len()
    );

    let server = site.serve().expect("serve");
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    let get = |path: &str| -> serde_json::Value {
        client
            .get(
                &format!("{}{path}", server.base_url()),
                &[("X-Remote-User", &user)],
            )
            .expect("request")
            .json()
            .expect("json")
    };

    // ---- Figure 2: the homepage -------------------------------------------
    println!("\n=== Homepage (Figure 2) for {user} ===");
    let status = get("/api/system_status");
    println!("System Status:");
    for p in status["partitions"].as_array().unwrap() {
        println!(
            "  {:<6} {:>5} CPU {:>6}/{:<6} ({:>5}% {}){}",
            p["name"].as_str().unwrap(),
            p["status"].as_str().unwrap(),
            p["cpus"]["alloc"],
            p["cpus"]["total"],
            p["cpus"]["percent"],
            p["cpus"]["color"].as_str().unwrap(),
            if p["gpus"].is_null() {
                String::new()
            } else {
                format!(
                    "  GPU {}/{} ({}%)",
                    p["gpus"]["alloc"], p["gpus"]["total"], p["gpus"]["percent"]
                )
            }
        );
    }

    let news = get("/api/announcements");
    println!("Announcements:");
    for a in news["items"].as_array().unwrap() {
        println!(
            "  [{:<11}] {} ({}, {})",
            a["category"].as_str().unwrap(),
            a["title"].as_str().unwrap(),
            a["color"].as_str().unwrap(),
            a["relevance"].as_str().unwrap(),
        );
    }

    let accounts = get("/api/accounts");
    println!("Accounts:");
    for a in accounts["accounts"].as_array().unwrap() {
        println!(
            "  {:<10} CPUs in use {:>4}, queued {:>4}, limit {:>5}  GPU hours {:>8}",
            a["name"].as_str().unwrap(),
            a["cpus_in_use"],
            a["cpus_queued"],
            a["cpu_limit"],
            a["gpu_hours_used"],
        );
    }

    let storage = get("/api/storage");
    println!("Storage:");
    for d in storage["disks"].as_array().unwrap() {
        println!(
            "  {:<20} {:>6}% bytes ({}), {:>6}% files",
            d["path"].as_str().unwrap(),
            d["bytes_percent"],
            d["bytes_color"].as_str().unwrap(),
            d["files_percent"],
        );
    }

    // ---- Figure 3: My Jobs -------------------------------------------------
    println!("\n=== My Jobs (Figure 3) for {user}'s group ===");
    let myjobs = get("/api/myjobs?range=all");
    let jobs = myjobs["jobs"].as_array().unwrap();
    println!(
        "{:<9} {:<22} {:<9} {:<11} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "JOBID", "NAME", "QOS", "STATE", "WAIT(s)", "ELAPSED", "TIME_EFF", "CPU_EFF", "MEM_EFF"
    );
    // Efficiency arrives in per mille; the page prints it with one decimal.
    let pct = |v: &serde_json::Value| percent(v.as_u64().and_then(|n| u16::try_from(n).ok()));
    for j in jobs.iter().take(18) {
        println!(
            "{:<9} {:<22} {:<9} {:<11} {:>9} {:>9} {:>8} {:>8} {:>8}",
            j["id"].as_str().unwrap_or("?"),
            j["name"]
                .as_str()
                .unwrap_or("?")
                .chars()
                .take(22)
                .collect::<String>(),
            j["qos"].as_str().unwrap_or("?"),
            j["state"].as_str().unwrap_or("?"),
            j["wait_secs"]
                .as_u64()
                .map(|w| w.to_string())
                .unwrap_or_else(|| "—".into()),
            j["elapsed_secs"],
            pct(&j["efficiency"]["time"]),
            pct(&j["efficiency"]["cpu"]),
            pct(&j["efficiency"]["memory"]),
        );
        if let Some(msg) = j["reason"]["message"].as_str() {
            println!(
                "          └─ {} — {msg}",
                j["reason"]["code"].as_str().unwrap_or("")
            );
        }
        for w in j["efficiency"]["warnings"]
            .as_array()
            .map(Vec::as_slice)
            .unwrap_or(&[])
        {
            println!("          ⚠ {}", w.as_str().unwrap_or(""));
        }
    }
    println!("({} jobs total)", jobs.len());

    println!("\nJob state distribution chart (per user):");
    let chart = &myjobs["charts"]["state_distribution"];
    let labels = chart["labels"].as_array().unwrap();
    for ds in chart["datasets"].as_array().unwrap() {
        let total: u64 = ds["data"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|v| v.as_u64())
            .sum();
        println!(
            "  {:<12} {:>4} jobs across {} users",
            ds["label"].as_str().unwrap(),
            total,
            labels.len()
        );
    }

    // Render the actual HTML pages to prove the full pipeline works.
    let homepage_payloads: Vec<(&str, Result<String, String>)> = pages::homepage::WIDGETS
        .iter()
        .map(|(w, path)| (*w, Ok(get(path).to_string())))
        .collect();
    let html = pages::homepage::render_full("Anvil", &user, &homepage_payloads);
    let myjobs_html = pages::myjobs::render_full("Anvil", &user, myjobs.to_string().as_bytes());
    println!(
        "\nrendered homepage: {} bytes of HTML; My Jobs page: {} bytes",
        html.len(),
        myjobs_html.len()
    );
}
