//! The `/slurm/v0` family end to end over HTTP: deny-by-default 401s with
//! structured error bodies, the mint → use → revoke token lifecycle, the
//! scope-vs-privacy parity matrix (a token carrying a subject's full
//! profile sees exactly what that subject's `X-Remote-User` widget view
//! allows — and a narrowed token strictly less), act-as gating with its
//! audit trail on `/observatory`, and the hot-path guarantee: structured
//! requests take no cluster-state lock and invoke no text parser.
//!
//! Everything lives in one test: the parse counter is process-wide, so the
//! zero-parse section must not race widget requests from sibling tests.

use hpcdash::SimSite;
use hpcdash_http::{ClientResponse, HttpClient};
use hpcdash_slurm::job::{JobRequest, UsageProfile};
use hpcdash_workload::ScenarioConfig;
use serde_json::json;
use std::collections::BTreeSet;

struct Api {
    client: HttpClient,
    base: String,
}

impl Api {
    fn get(&self, path: &str, headers: &[(&str, &str)]) -> ClientResponse {
        self.client
            .get(&format!("{}{path}", self.base), headers)
            .unwrap()
    }

    fn with_user(&self, path: &str, user: &str) -> ClientResponse {
        self.get(path, &[("X-Remote-User", user)])
    }

    fn with_bearer(&self, path: &str, secret: &str) -> ClientResponse {
        self.get(path, &[("Authorization", &format!("Bearer {secret}"))])
    }

    fn mint(&self, subject: &str, scopes: &[&str], as_user: &str) -> ClientResponse {
        self.client
            .post(
                &format!("{}/slurm/v0/admin/tokens", self.base),
                &[("X-Remote-User", as_user)],
                json!({ "subject": subject, "scopes": scopes })
                    .to_string()
                    .into_bytes(),
            )
            .unwrap()
    }

    /// Mint as root, returning `(token id, one-time secret)`.
    fn mint_ok(&self, subject: &str, scopes: &[&str]) -> (String, String) {
        let resp = self.mint(subject, scopes, "root");
        assert_eq!(resp.status, 200, "mint for {subject} {scopes:?}");
        let body = resp.json().unwrap();
        (
            body["id"].as_str().unwrap().to_string(),
            body["secret"].as_str().unwrap().to_string(),
        )
    }

    /// Job ids a bearer sees on the list endpoint.
    fn listed_jobs(&self, secret: &str) -> BTreeSet<u64> {
        let resp = self.with_bearer("/slurm/v0/jobs", secret);
        assert_eq!(resp.status, 200);
        resp.json().unwrap()["jobs"]
            .as_array()
            .unwrap()
            .iter()
            .map(|j| j["job_id"].as_u64().unwrap())
            .collect()
    }
}

const READ_ROUTES: &[&str] = &[
    "/slurm/v0/jobs",
    "/slurm/v0/jobs/1",
    "/slurm/v0/nodes",
    "/slurm/v0/partitions",
    "/slurm/v0/associations",
    "/slurm/v0/diag",
];

#[test]
fn slurm_v0_end_to_end() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(900);
    let server = site.serve().unwrap();
    let api = Api {
        base: server.base_url(),
        client: HttpClient::new(),
    };

    // Three subjects: an owner, a teammate in the same account, and a user
    // from a disjoint account — the privacy matrix's interesting corners.
    let pop = &site.scenario.population;
    let alice = pop.users[0].clone();
    let a_accounts = pop.accounts_of(&alice);
    let account = a_accounts[0].clone();
    let teammate = pop
        .users
        .iter()
        .find(|u| **u != alice && pop.accounts_of(u).contains(&account))
        .expect("account has two members")
        .clone();
    let bob = pop
        .users
        .iter()
        .find(|u| !pop.accounts_of(u).iter().any(|a| a_accounts.contains(a)))
        .expect("population has a disjoint user")
        .clone();
    let bob_account = pop.accounts_of(&bob)[0].clone();
    for (u, a) in [
        (&alice, &account),
        (&teammate, &account),
        (&bob, &bob_account),
    ] {
        let mut req = JobRequest::simple(u, a, "cpu", 2);
        req.usage = UsageProfile::batch(600);
        site.scenario.ctld.submit(req).unwrap();
    }
    site.scenario.ctld.tick();

    // --- Deny by default: every read route 401s without a token, and the
    // refusal is a structured JSON body, not prose.
    for path in READ_ROUTES {
        let resp = api.get(path, &[]);
        assert_eq!(resp.status, 401, "{path}");
        let body = resp.json().unwrap();
        assert_eq!(body["status"], 401, "{path}: structured error body");
        assert!(
            body["error"].as_str().unwrap().contains("token"),
            "{path}: {body}"
        );
    }
    // An X-Remote-User identity alone does not open the family either.
    assert_eq!(api.with_user("/slurm/v0/jobs", &alice).status, 401);

    // --- Minting is admin-gated, and can only narrow the subject's view:
    // scopes the subject's profile doesn't imply refuse at mint time.
    assert_eq!(api.mint(&alice, &["read-own-jobs"], &alice).status, 403);
    let wide = format!("read-account:{account}");
    assert_eq!(api.mint(&bob, &[&wide], "root").status, 403);
    assert_eq!(api.mint(&bob, &["read-cluster"], "root").status, 403);

    // --- The parity matrix. A cluster-scoped admin token enumerates every
    // active job; then for each subject, a token carrying the subject's
    // full profile must agree with the subject's widget-route verdict on
    // every single job — and its list endpoint must return exactly the
    // allowed set. No token ever sees more than `X-Remote-User` would.
    let (_, root_secret) = api.mint_ok("root", &["read-cluster"]);
    let resp = api.with_bearer("/slurm/v0/jobs", &root_secret);
    assert_eq!(resp.status, 200);
    let all_jobs = resp.json().unwrap()["jobs"].as_array().unwrap().to_vec();
    let ids: BTreeSet<u64> = all_jobs
        .iter()
        .map(|j| j["job_id"].as_u64().unwrap())
        .collect();
    assert!(ids.len() >= 3, "warm-up left {} active jobs", ids.len());

    for subject in [&alice, &teammate, &bob] {
        let mut scopes = vec!["read-own-jobs".to_string()];
        scopes.extend(
            pop.accounts_of(subject)
                .iter()
                .map(|a| format!("read-account:{a}")),
        );
        let scope_refs: Vec<&str> = scopes.iter().map(String::as_str).collect();
        let (_, secret) = api.mint_ok(subject, &scope_refs);
        let mut allowed = BTreeSet::new();
        for id in &ids {
            let widget = api.with_user(&format!("/api/jobs/{id}"), subject).status;
            let token = api
                .with_bearer(&format!("/slurm/v0/jobs/{id}"), &secret)
                .status;
            assert_eq!(
                token, widget,
                "job {id} as {subject}: token and widget verdicts disagree"
            );
            if token == 200 {
                allowed.insert(*id);
            }
        }
        assert_eq!(
            api.listed_jobs(&secret),
            allowed,
            "{subject}: list endpoint must return exactly the per-id-allowed set"
        );
    }

    // --- Narrowing: an own-jobs-only token is a strict subset of the
    // widget view. The teammate's job stays widget-visible to alice (group
    // rule) but vanishes from the narrowed token: 403, with a distinct 404
    // for ids that don't exist at all.
    let (_, own_secret) = api.mint_ok(&alice, &["read-own-jobs"]);
    let own: BTreeSet<u64> = all_jobs
        .iter()
        .filter(|j| j["user_name"] == alice.as_str())
        .map(|j| j["job_id"].as_u64().unwrap())
        .collect();
    assert_eq!(api.listed_jobs(&own_secret), own);
    let teammates_job = all_jobs
        .iter()
        .find(|j| j["user_name"] == teammate.as_str())
        .unwrap()["job_id"]
        .as_u64()
        .unwrap();
    assert_eq!(
        api.with_user(&format!("/api/jobs/{teammates_job}"), &alice)
            .status,
        200
    );
    let resp = api.with_bearer(&format!("/slurm/v0/jobs/{teammates_job}"), &own_secret);
    assert_eq!(resp.status, 403);
    assert_eq!(resp.json().unwrap()["status"], 403);
    assert_eq!(
        api.with_bearer("/slurm/v0/jobs/999999", &own_secret).status,
        404,
        "unknown id is 404, out-of-scope is 403"
    );

    // --- Act-as requires the scope, and leaves an audit trail the
    // observatory surfaces.
    let (_, actas_secret) = api.mint_ok("root", &["read-own-jobs", "admin-act-as"]);
    let resp = api.get(
        "/slurm/v0/jobs",
        &[
            ("Authorization", &format!("Bearer {actas_secret}")),
            ("X-Act-As", &alice),
        ],
    );
    assert_eq!(resp.status, 200);
    let acted: BTreeSet<u64> = resp.json().unwrap()["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .map(|j| j["job_id"].as_u64().unwrap())
        .collect();
    assert_eq!(acted, own, "acting as alice shows alice's own-jobs view");
    let resp = api.get(
        "/slurm/v0/jobs",
        &[
            ("Authorization", &format!("Bearer {own_secret}")),
            ("X-Act-As", &bob),
        ],
    );
    assert_eq!(resp.status, 403, "a user token cannot act as anyone");
    let observatory = api.with_user("/api/observatory", "root").json().unwrap();
    assert!(
        observatory["act_as"]
            .as_array()
            .unwrap()
            .iter()
            .any(|r| r["admin"] == "root" && r["target"] == alice.as_str()),
        "the switch is on the audit table: {}",
        observatory["act_as"]
    );

    // --- Revoke: the inventory never repeats secrets; a revoked token
    // 401s from then on.
    let (id, secret) = api.mint_ok(&alice, &["read-own-jobs"]);
    assert_eq!(api.with_bearer("/slurm/v0/jobs", &secret).status, 200);
    let inventory = api
        .with_user("/slurm/v0/admin/tokens", "root")
        .json()
        .unwrap();
    assert!(!inventory.to_string().contains(&secret), "secrets withheld");
    let resp = api
        .client
        .post(
            &format!("{}/slurm/v0/admin/tokens/{id}/revoke", api.base),
            &[("X-Remote-User", "root")],
            Vec::new(),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let resp = api.with_bearer("/slurm/v0/jobs", &secret);
    assert_eq!(resp.status, 401);
    assert!(resp.json().unwrap()["error"]
        .as_str()
        .unwrap()
        .contains("revoked"));

    // --- The hot-path guarantee, over the wire: a burst across the whole
    // read family adds zero cluster-state-mutex acquisitions and zero text
    // parses. (The sections above ran widget routes, which do both — the
    // counters are sampled after them on purpose.)
    let locks0 = site.scenario.ctld.stats().state_lock_count();
    let parses0 = hpcdash_slurmcli::parse_call_count();
    for _ in 0..5 {
        for path in [
            "/slurm/v0/jobs",
            "/slurm/v0/nodes",
            "/slurm/v0/partitions",
            "/slurm/v0/associations",
            "/slurm/v0/diag",
        ] {
            assert_eq!(api.with_bearer(path, &root_secret).status, 200, "{path}");
        }
    }
    assert_eq!(
        site.scenario.ctld.stats().state_lock_count(),
        locks0,
        "structured requests must never take the cluster-state mutex"
    );
    assert_eq!(
        hpcdash_slurmcli::parse_call_count(),
        parses0,
        "structured requests must never invoke a text parser"
    );
}

/// `MAX_BODY` admits megabytes to the token endpoint, and the JSON parser
/// recurses once per `[`: without its depth limit a body of nothing but
/// `[[[[…` overflowed the stack and took the whole server down.
#[test]
fn a_megabyte_of_open_brackets_is_a_400_and_the_server_lives() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(300);
    let server = site.serve().unwrap();
    let api = Api {
        client: HttpClient::new(),
        base: server.base_url(),
    };
    let resp = api
        .client
        .post(
            &format!("{}/slurm/v0/admin/tokens", api.base),
            &[("X-Remote-User", "root")],
            vec![b'['; 1 << 20],
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{:?}", resp.json());
    assert_eq!(api.with_user("/api/health", "root").status, 200);
    assert_eq!(api.mint("root", &["read-cluster"], "root").status, 200);
}
