//! `slurmcli`: command text rendered and parsed back — the paper's command
//! boundary, with the arguments My Jobs, Recent Jobs, System Status and
//! Cluster Status pass it.

use crate::site::Site;
use crate::spans::Spans;
use hpcdash::slurmcli::{
    parse_sacct, parse_show_node, parse_sinfo_usage, parse_squeue_long, sacct, show_node,
    sinfo_usage, squeue_long, SacctArgs, SqueueArgs,
};

pub fn run(site: &Site, spans: &mut Spans) {
    let portal = site.portal();
    let now = site.ctx().now();
    // My Jobs for every user: sacct over the default seven days plus one
    // squeue for live pending reasons.
    for user in &portal.population.users {
        let accounts = portal.population.accounts_of(user);
        let sacct_args = SacctArgs {
            user: Some(user.clone()),
            accounts: accounts.clone(),
            states: None,
            since: Some(now.minus(7 * 86_400)),
            until: None,
            job_ids: None,
        };
        let text = spans
            .time("slurmcli.sacct_render", || {
                sacct(&portal.dbd, &sacct_args, now)
            })
            .expect("sacct renders");
        spans
            .time("slurmcli.sacct_parse", || parse_sacct(&text))
            .expect("sacct text parses");
        let squeue_args = SqueueArgs {
            user: Some(user.clone()),
            accounts,
            partition: None,
        };
        let text = spans
            .time("slurmcli.squeue_render", || {
                squeue_long(&portal.ctld, &squeue_args)
            })
            .expect("squeue renders");
        spans
            .time("slurmcli.squeue_parse", || parse_squeue_long(&text))
            .expect("squeue text parses");
    }
    for _ in 0..16 {
        let text = spans
            .time("slurmcli.sinfo_render", || sinfo_usage(&portal.ctld))
            .expect("sinfo renders");
        spans
            .time("slurmcli.sinfo_parse", || parse_sinfo_usage(&text))
            .expect("sinfo text parses");
        let text = spans
            .time("slurmcli.scontrol_node_render", || {
                show_node(&portal.ctld, None)
            })
            .expect("scontrol show node renders");
        spans
            .time("slurmcli.scontrol_node_parse", || parse_show_node(&text))
            .expect("scontrol text parses");
    }
}
