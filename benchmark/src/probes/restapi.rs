//! `restapi`: bearer authentication, scope-to-index resolution and the
//! snapshot serializers behind `/slurm/v0/jobs` and `/slurm/v0/nodes`.

use crate::site::Site;
use crate::spans::Spans;
use hpcdash::restapi::{serialize, visible_job_positions};

pub fn run(site: &Site, spans: &mut Spans) {
    let user = &site.portal().population.users[0];
    let secrets = [
        site.mint(user, "read-own-jobs"),
        site.mint("root", "read-cluster"),
    ];
    let snap = site.portal().ctld.snapshot();
    for secret in &secrets {
        spans.time_ops("restapi.auth", 1_000, || {
            std::hint::black_box(site.ctx().tokens.authenticate(secret).is_ok());
        });
        let token = site
            .ctx()
            .tokens
            .authenticate(secret)
            .expect("a token minted a moment ago authenticates");
        for _ in 0..16 {
            let positions = spans
                .time("restapi.visible_positions", || {
                    visible_job_positions(&snap, &token.scopes, &token.subject)
                })
                .expect("both scopes grant job visibility");
            spans.time("restapi.jobs_body", || {
                std::hint::black_box(serialize::jobs_body(&snap, &positions));
            });
        }
    }
    for _ in 0..16 {
        spans.time("restapi.nodes_body", || {
            std::hint::black_box(serialize::nodes_body(&snap, None));
        });
    }
}
