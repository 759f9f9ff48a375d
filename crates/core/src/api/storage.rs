//! Storage widget API (paper §3.5): the user's directories with usage and
//! file-count bars, from the ZFS/GPFS quota database.

use crate::api::encode;
use crate::auth::CurrentUser;
use crate::colors::utilization_color;
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use serde_json::json;

pub const FEATURE: &str = "Storage widget";
pub const ROUTES: &[&str] = &["/api/storage"];
pub const SOURCES: &[&str] = &["ZFS and GPFS storage database"];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let key = format!("storage:{}", user.username);
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.storage, || {
        ctx.note_source(FEATURE, "ZFS and GPFS storage database");
        let groups = user.visible_accounts(ctx);
        let dirs = ctx
            .storage
            .dirs_for_user(&user.username, &groups)
            .map_err(|e| e.to_string())?;
        Ok(encode(&json!({
            "disks": dirs
                .iter()
                .map(|d| {
                    json!({
                        "path": d.path,
                        "filesystem": d.filesystem.label(),
                        "bytes_used": d.bytes_used,
                        "bytes_quota": d.bytes_quota,
                        "bytes_percent": (d.bytes_fraction() * 1000.0).round() / 10.0,
                        "bytes_color": utilization_color(d.bytes_fraction()),
                        "files_used": d.files_used,
                        "files_quota": d.files_quota,
                        "files_percent": (d.files_fraction() * 1000.0).round() / 10.0,
                        "files_color": utilization_color(d.files_fraction()),
                        // Link into the Open OnDemand files app (paper §3.5).
                        "files_app_url": format!("/pun/sys/files/fs{}", d.path),
                        "scanned_at": d.scanned_at.to_slurm(),
                    })
                })
                .collect::<Vec<_>>(),
        })))
    });
    super::respond(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_simtime::Timestamp;
    use hpcdash_storage::GB;

    fn request(user: &str) -> Request {
        Request::new(Method::Get, "/api/storage").with_header("X-Remote-User", user)
    }

    #[test]
    fn lists_home_scratch_and_depot() {
        let ctx = test_ctx();
        ctx.storage.provision_user("alice", Timestamp(0));
        ctx.storage
            .provision_group("physics", 100 * GB, Timestamp(0));
        ctx.storage
            .set_usage("/home/alice", 24 * GB, 390_000, Timestamp(10));
        let resp = handle(&ctx, &request("alice"));
        assert_eq!(resp.status, 200);
        let disks = resp.body_json().unwrap()["disks"]
            .as_array()
            .unwrap()
            .to_vec();
        let paths: Vec<&str> = disks.iter().map(|d| d["path"].as_str().unwrap()).collect();
        assert_eq!(
            paths,
            vec!["/home/alice", "/scratch/alice", "/depot/physics"]
        );
        let home = &disks[0];
        assert_eq!(home["filesystem"], "zfs-home");
        assert_eq!(home["bytes_color"], "red", "24/25 GB is over 90%");
        assert_eq!(home["files_color"], "red");
        assert_eq!(home["files_app_url"], "/pun/sys/files/fs/home/alice");
    }

    #[test]
    fn privacy_excludes_other_users_dirs() {
        let ctx = test_ctx();
        ctx.storage.provision_user("alice", Timestamp(0));
        ctx.storage.provision_user("bob", Timestamp(0));
        let resp = handle(&ctx, &request("bob"));
        let disks = resp.body_json().unwrap()["disks"]
            .as_array()
            .unwrap()
            .to_vec();
        assert!(disks
            .iter()
            .all(|d| d["path"].as_str().unwrap().contains("bob")));
    }

    #[test]
    fn storage_db_outage_degrades() {
        let ctx = test_ctx();
        ctx.storage.set_available(false);
        assert_eq!(handle(&ctx, &request("alice")).status, 503);
        ctx.storage.set_available(true);
        assert_eq!(handle(&ctx, &request("alice")).status, 200);
    }
}
