//! Output checks on the seeded 1-in-16 sample of responses. They run on
//! the main thread after a round's barrier and before the next tick, so
//! the simulation is still frozen in the state the response was built
//! from, and none of this is inside request timing.

use crate::schedule::{is_shell, Consumer};
use crate::site::Site;
use serde_json::Value;

/// One sampled exchange, as the socket client saw it.
pub struct Sample {
    /// `(round, visit index, request index)`: schedule order, which is the
    /// order the digest folds bodies in.
    pub order: (u64, usize, usize),
    pub consumer: usize,
    /// Index into `schedule::ROUTES`.
    pub route: u8,
    pub request: Vec<u8>,
    pub status: u16,
    pub body: Vec<u8>,
}

/// A request is sampled when this hash of its schedule position is 0 mod 16.
pub fn sampled(seed: u64, round: u64, visit: usize, request: usize) -> bool {
    let position = (round << 24) ^ ((visit as u64) << 8) ^ request as u64;
    crate::stats::mix(seed ^ crate::stats::mix(position)).is_multiple_of(16)
}

/// Does the body parse, equal what `Dashboard::handle` answers for the same
/// bytes in this still-frozen round, and keep the paper's privacy promise?
pub fn check(site: &Site, consumer: &Consumer, sample: &Sample) -> Result<(), String> {
    let reference = site.handle_bytes(&sample.request);
    if reference.status != sample.status {
        return Err(format!(
            "socket answered {} but Dashboard::handle answers {}",
            sample.status, reference.status
        ));
    }
    if sample.status == 304 {
        return Ok(());
    }
    if reference.body.as_slice() != sample.body.as_slice() {
        return Err(format!(
            "socket body ({} B) differs from Dashboard::handle ({} B)",
            sample.body.len(),
            reference.body.len()
        ));
    }
    if is_shell(sample.route) {
        let html = String::from_utf8_lossy(&sample.body);
        return if html.contains("<html") && html.contains("</html>") {
            Ok(())
        } else {
            Err("shell is not an HTML document".to_string())
        };
    }
    let json: Value =
        serde_json::from_slice(&sample.body).map_err(|e| format!("body is not JSON: {e}"))?;
    if json["degraded"] == Value::Bool(true) {
        return Err("payload is marked degraded".to_string());
    }
    if consumer.admin {
        return Ok(());
    }
    match foreign_row(&json, consumer) {
        Some(row) => Err(format!("job row outside the viewer's accounts: {row}")),
        None => Ok(()),
    }
}

/// The first object carrying both an owner and an account that the consumer
/// must not see: not their own job, not in one of their accounts.
fn foreign_row(value: &Value, consumer: &Consumer) -> Option<String> {
    match value {
        Value::Array(items) => items.iter().find_map(|v| foreign_row(v, consumer)),
        Value::Object(map) => {
            let owner = map
                .get("user")
                .or_else(|| map.get("user_name"))
                .and_then(Value::as_str);
            let account = map.get("account").and_then(Value::as_str);
            if let (Some(owner), Some(account)) = (owner, account) {
                if owner != consumer.name && !consumer.accounts.iter().any(|a| a == account) {
                    return Some(format!("user {owner}, account {account}"));
                }
            }
            map.iter().find_map(|(_, v)| foreign_row(v, consumer))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn sampling_is_seeded_and_about_one_in_sixteen() {
        let hits = (0..1_000u64)
            .flat_map(|r| (0..16).map(move |v| (r, v)))
            .filter(|(r, v)| sampled(42, *r, *v, 1))
            .count();
        assert!((800..1_200).contains(&hits), "{hits} of 16000");
        assert_eq!(sampled(42, 3, 4, 5), sampled(42, 3, 4, 5));
    }

    #[test]
    fn privacy_walk_finds_only_foreign_rows() {
        let me = Consumer {
            name: "wei000".into(),
            accounts: vec!["physics".into()],
            ..Consumer::default()
        };
        let mine = json!({"jobs": [
            {"user": "wei000", "account": "bio"},
            {"user": "maria001", "account": "physics"},
            {"user_name": "wei000", "account": "physics"},
        ]});
        assert_eq!(foreign_row(&mine, &me), None);
        let leak = json!({"jobs": [{"user": "omar006", "account": "chem"}]});
        assert!(foreign_row(&leak, &me).unwrap().contains("omar006"));
    }
}
