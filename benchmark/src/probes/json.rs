//! `vendor/serde_json`: encode, clone and parse of the largest My Jobs
//! payload of the site, per kilobyte of its encoded form. A widget-cache
//! hit clones and encodes the value; a miss builds and encodes it.

use crate::site::Site;
use crate::spans::Spans;

const REPEATS: u32 = 8;

pub fn run(site: &Site, spans: &mut Spans) {
    let body = site
        .portal()
        .population
        .users
        .iter()
        .map(|u| {
            site.get("/api/myjobs", &format!("X-Remote-User: {u}\r\n"))
                .body
        })
        .max_by_key(|b| b.len())
        .expect("the site has users");
    let value: serde_json::Value = serde_json::from_slice(&body).expect("My Jobs is JSON");
    // ops = kilobytes handled, so the span mean reads directly as time/KB.
    let kb = (body.len() as u32 * REPEATS).div_ceil(1024);
    let id = spans.enter("json.parse");
    for _ in 0..REPEATS {
        std::hint::black_box(serde_json::from_slice::<serde_json::Value>(&body).is_ok());
    }
    spans.exit(id);
    spans.set_ops(id, kb);
    let id = spans.enter("json.clone");
    for _ in 0..REPEATS {
        std::hint::black_box(value.clone());
    }
    spans.exit(id);
    spans.set_ops(id, kb);
    let id = spans.enter("json.to_bytes");
    for _ in 0..REPEATS {
        std::hint::black_box(serde_json::to_vec(&value).is_ok());
    }
    spans.exit(id);
    spans.set_ops(id, kb);
}
