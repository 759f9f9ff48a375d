//! The paper's privacy rules (§2.4), verified across users over HTTP:
//! users see only their own/group data; logs are owner-only. The rule is
//! written once, as `ScopeSet::allows_job`; the differential tests at the
//! end hold every reader of it to the same verdicts.

use hpcdash::core::auth::CurrentUser;
use hpcdash::restapi::{visible_job_positions, Scope, ScopeSet};
use hpcdash::SimSite;
use hpcdash_core::DashboardConfig;
use hpcdash_http::{HttpClient, Method, Request, Response};
use hpcdash_slurm::job::{JobRequest, UsageProfile};
use hpcdash_slurm::snapshot::ClusterSnapshot;
use hpcdash_workload::ScenarioConfig;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

struct Site {
    _server_keepalive: hpcdash_http::Server,
    base: String,
    client: HttpClient,
    site: SimSite,
}

fn build() -> Site {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    Site {
        base: server.base_url(),
        _server_keepalive: server,
        client: HttpClient::new(),
        site,
    }
}

impl Site {
    fn get(&self, path: &str, user: &str) -> hpcdash_http::ClientResponse {
        self.client
            .get(&format!("{}{path}", self.base), &[("X-Remote-User", user)])
            .unwrap()
    }

    fn two_users_different_accounts(&self) -> (String, String) {
        let pop = &self.site.scenario.population;
        let a = pop.users[0].clone();
        let a_accounts = pop.accounts_of(&a);
        let b = pop
            .users
            .iter()
            .find(|u| {
                let accs = pop.accounts_of(u);
                !accs.iter().any(|acc| a_accounts.contains(acc))
            })
            .expect("population has disjoint users")
            .clone();
        (a, b)
    }
}

#[test]
fn requests_without_identity_are_rejected() {
    let s = build();
    for path in ["/", "/api/myjobs", "/api/storage", "/api/accounts"] {
        let resp = s.client.get(&format!("{}{path}", s.base), &[]).unwrap();
        assert_eq!(resp.status, 401, "{path}");
    }
}

#[test]
fn job_visibility_is_scoped_to_group() {
    let s = build();
    let (alice, bob) = s.two_users_different_accounts();
    let account = s.site.scenario.population.accounts_of(&alice)[0].clone();

    let mut req = JobRequest::simple(&alice, &account, "cpu", 2);
    req.usage = UsageProfile::batch(600);
    let id = s.site.scenario.ctld.submit(req).unwrap()[0];
    s.site.scenario.ctld.tick();

    // Owner sees it in My Jobs; the unrelated user does not.
    let mine = s.get("/api/myjobs?range=all", &alice).json().unwrap();
    assert!(mine["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .any(|j| j["id"] == id.to_string()));
    let theirs = s.get("/api/myjobs?range=all", &bob).json().unwrap();
    assert!(!theirs["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .any(|j| j["id"] == id.to_string()));

    // Job Overview: unrelated user is forbidden outright.
    assert_eq!(s.get(&format!("/api/jobs/{id}"), &bob).status, 403);
    assert_eq!(s.get(&format!("/api/jobs/{id}"), &alice).status, 200);
}

#[test]
fn logs_are_owner_only_even_within_the_group() {
    let s = build();
    let pop = &s.site.scenario.population;
    let alice = pop.users[0].clone();
    let account = pop.accounts_of(&alice)[0].clone();
    // Find a second member of the same account.
    let teammate = pop
        .users
        .iter()
        .find(|u| **u != alice && pop.accounts_of(u).contains(&account))
        .expect("account has two members")
        .clone();

    let mut req = JobRequest::simple(&alice, &account, "cpu", 2);
    req.usage = UsageProfile::batch(600);
    let id = s.site.scenario.ctld.submit(req).unwrap()[0];
    s.site.scenario.ctld.tick();

    // Teammate can open the job overview (group visibility)...
    assert_eq!(s.get(&format!("/api/jobs/{id}"), &teammate).status, 200);
    // ...but not the logs (filesystem ownership).
    assert_eq!(
        s.get(&format!("/api/jobs/{id}/logs?stream=out"), &teammate)
            .status,
        403
    );
    assert_eq!(
        s.get(&format!("/api/jobs/{id}/logs?stream=out"), &alice)
            .status,
        200
    );
}

#[test]
fn storage_and_accounts_are_scoped() {
    let s = build();
    let (alice, bob) = s.two_users_different_accounts();
    let alices_accounts = s.site.scenario.population.accounts_of(&alice);

    let disks = s.get("/api/storage", &bob).json().unwrap();
    for d in disks["disks"].as_array().unwrap() {
        let path = d["path"].as_str().unwrap();
        assert!(
            !path.contains(&format!("/{alice}")),
            "bob sees alice's disk {path}"
        );
    }

    let accounts = s.get("/api/accounts", &bob).json().unwrap();
    for a in accounts["accounts"].as_array().unwrap() {
        assert!(
            !alices_accounts.contains(&a["name"].as_str().unwrap().to_string()),
            "bob sees alice's allocation"
        );
    }

    // Export endpoint enforces membership.
    let resp = s.get(
        &format!("/api/accounts/{}/export", alices_accounts[0]),
        &bob,
    );
    assert_eq!(resp.status, 403);
}

#[test]
fn admin_act_as_views_other_users_data() {
    // The permission-based accounting extension (paper §9): `root` is in
    // the admin list of the purdue-like config, so with X-Act-As it can see
    // any user's storage — while a regular user's X-Act-As is ignored.
    let s = build();
    let alice = s.site.scenario.population.users[0].clone();

    let resp = s
        .client
        .get(
            &format!("{}/api/storage", s.base),
            &[("X-Remote-User", "root"), ("X-Act-As", alice.as_str())],
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let disks = resp.json().unwrap();
    assert!(
        disks["disks"]
            .as_array()
            .unwrap()
            .iter()
            .any(|d| d["path"].as_str().unwrap().contains(alice.as_str())),
        "admin view should surface alice's disks"
    );

    // A non-admin sending X-Act-As stays themselves.
    let (_, bob) = s.two_users_different_accounts();
    let resp = s
        .client
        .get(
            &format!("{}/api/storage", s.base),
            &[
                ("X-Remote-User", bob.as_str()),
                ("X-Act-As", alice.as_str()),
            ],
        )
        .unwrap();
    let disks = resp.json().unwrap();
    assert!(disks["disks"]
        .as_array()
        .unwrap()
        .iter()
        .all(|d| !d["path"].as_str().unwrap().contains(alice.as_str())));
}

#[test]
fn recent_jobs_shows_only_own_submissions() {
    let s = build();
    let (alice, bob) = s.two_users_different_accounts();
    let account = s.site.scenario.population.accounts_of(&alice)[0].clone();
    s.site
        .scenario
        .ctld
        .submit(JobRequest::simple(&alice, &account, "cpu", 1))
        .unwrap();
    s.site.scenario.ctld.tick();
    let bobs = s.get("/api/recent_jobs", &bob).json().unwrap();
    assert_eq!(bobs["jobs"].as_array().unwrap().len(), 0);
}

/// A campus site after four hours of seeded traffic, short enough that the
/// event log still retains its whole history.
fn campus_site() -> SimSite {
    let site = SimSite::build_with(ScenarioConfig::campus(), DashboardConfig::purdue_like());
    site.warm_up(4 * 3_600);
    site
}

/// The event seqs an `/api/updates*` answer carries.
fn event_seqs(resp: Response) -> BTreeSet<u64> {
    assert_eq!(resp.status, 200, "{}", resp.body_string());
    let body = resp.body_json().unwrap();
    assert_eq!(body["resync_required"], false);
    let events = body["events"].as_array().unwrap();
    events.iter().map(|e| e["seq"].as_u64().unwrap()).collect()
}

#[test]
fn every_reader_of_the_privacy_rule_agrees_on_every_job() {
    let site = campus_site();
    let ctx = site.ctx();
    let snap = ctx.ctld.snapshot();
    let read = ctx.ctld.events().read(0, |_| true);
    assert!(!read.truncated, "the whole history is retained");
    let events = read.entries;
    let mut seqs_of_job: BTreeMap<_, BTreeSet<u64>> = BTreeMap::new();
    for e in &events {
        seqs_of_job.entry(e.job).or_default().insert(e.seq);
    }

    // Every user, one admin, and that admin acting as a user.
    let users = &site.scenario.population.users;
    let admin = ctx.cfg.admins[0].as_str();
    let mut subjects: Vec<Vec<(&str, &str)>> = users
        .iter()
        .map(|u| vec![("X-Remote-User", u.as_str())])
        .collect();
    subjects.push(vec![("X-Remote-User", admin)]);
    subjects.push(vec![
        ("X-Remote-User", admin),
        ("X-Act-As", users[0].as_str()),
    ]);

    let mut seen_by_some = 0;
    for headers in &subjects {
        let request = |path: &str| {
            headers
                .iter()
                .fold(Request::new(Method::Get, path), |r, (k, v)| {
                    r.with_header(k, v)
                })
        };
        let viewer = CurrentUser::from_request(ctx, &request("/")).unwrap();
        let subject = viewer.username.as_str();
        let profile = viewer.scope_profile(ctx);
        let positions: BTreeSet<u32> = visible_job_positions(&snap, profile, subject)
            .expect("a profile always carries job scopes")
            .into_iter()
            .collect();
        let polled = event_seqs(site.dashboard.handle(&request("/api/updates?since=0")));
        let streamed = event_seqs(
            site.dashboard
                .handle(&request("/api/updates/stream?sub=oracle&since=0")),
        );

        for (i, job) in snap.jobs.iter().enumerate() {
            let (user, account) = (job.req.user.as_str(), job.req.account.as_str());
            let verdict = viewer.may_view_job_of(user, account, ctx);
            seen_by_some += usize::from(verdict);
            let why = format!("{headers:?} on job {} of {user}/{account}", job.id);
            assert_eq!(
                profile.allows_job(subject, user, account, &job.req.partition),
                verdict,
                "allows_job: {why}"
            );
            assert_eq!(
                positions.contains(&(i as u32)),
                verdict,
                "visible_job_positions: {why}"
            );
            let Some(seqs) = seqs_of_job.get(&job.id) else {
                continue;
            };
            let expected = if verdict {
                seqs.clone()
            } else {
                BTreeSet::new()
            };
            assert_eq!(&(seqs & &polled), &expected, "legacy poll: {why}");
            assert_eq!(&(seqs & &streamed), &expected, "hub delivery: {why}");
        }
        // Jobs that already left the snapshot obey the same rule.
        let expected: BTreeSet<u64> = events
            .iter()
            .filter(|e| viewer.may_view_job_of(&e.user, &e.account, ctx))
            .map(|e| e.seq)
            .collect();
        assert_eq!(polled, expected, "legacy poll: {headers:?}");
        assert_eq!(streamed, expected, "hub delivery: {headers:?}");
    }
    assert!(
        snap.jobs.len() > 200,
        "a busy site: {} jobs",
        snap.jobs.len()
    );
    assert!(seen_by_some > 0 && seen_by_some < subjects.len() * snap.jobs.len());
}

/// One seeded campus snapshot, shared by every proptest case.
fn seeded_snapshot() -> Arc<ClusterSnapshot> {
    static SNAP: OnceLock<Arc<ClusterSnapshot>> = OnceLock::new();
    SNAP.get_or_init(|| campus_site().ctx().ctld.snapshot())
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn visible_job_positions_is_allows_job_indexed(
        picks in proptest::collection::vec((0u8..5, 0usize..64), 0..6),
        subject_pick in 0usize..64,
    ) {
        let snap = seeded_snapshot();
        // Every name the snapshot indexes, plus one it does not.
        let names = |index: &hpcdash::slurm::snapshot::JobIndex| {
            let mut names: Vec<String> = index.keys().map(str::to_string).collect();
            names.sort();
            names.push("nobody-here".to_string());
            names
        };
        let (users, accounts, partitions) = (
            names(&snap.by_user),
            names(&snap.by_account),
            names(&snap.by_partition),
        );
        let scopes = ScopeSet::new(picks.iter().map(|&(kind, n)| match kind {
            0 => Scope::ReadOwnJobs,
            1 => Scope::ReadAccount(accounts[n % accounts.len()].clone()),
            2 => Scope::ReadPartition(partitions[n % partitions.len()].clone()),
            3 => Scope::ReadCluster,
            _ => Scope::AdminActAs,
        }));
        let subject = &users[subject_pick % users.len()];

        let allowed: Vec<u32> = (0..snap.jobs.len() as u32)
            .filter(|&i| {
                let j = &snap.jobs[i as usize].req;
                scopes.allows_job(subject, &j.user, &j.account, &j.partition)
            })
            .collect();
        match visible_job_positions(&snap, &scopes, subject) {
            None => prop_assert!(!scopes.has_job_scope(), "{scopes:?}"),
            Some(positions) => {
                prop_assert!(scopes.has_job_scope(), "{scopes:?}");
                prop_assert_eq!(positions, allowed, "{:?} for {}", scopes, subject);
            }
        }
    }
}
