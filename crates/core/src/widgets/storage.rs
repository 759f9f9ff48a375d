//! The Storage widget (paper §3.5): per-directory usage/file-count bars
//! linking into the Open OnDemand files app.

use crate::api::storage::Storage;
use crate::template::escape_html;
use crate::widgets::components::{card, progress_bar};

fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

/// Render from the `/api/storage` payload.
pub fn render(payload: &Storage) -> String {
    let mut body = String::new();
    for d in &payload.disks {
        body.push_str(&format!(
            "<div class=\"disk-row\"><a class=\"disk-path\" href=\"{}\">{}</a> \
             <span class=\"disk-fs\">{}</span>",
            escape_html(&d.files_app_url),
            escape_html(&d.path),
            escape_html(&d.filesystem),
        ));
        body.push_str(&progress_bar(
            d.bytes_percent,
            &d.bytes_color,
            &format!(
                "{} / {}",
                human_bytes(d.bytes_used),
                human_bytes(d.bytes_quota),
            ),
        ));
        body.push_str(&progress_bar(
            d.files_percent,
            &d.files_color,
            &format!("{} / {} files", d.files_used, d.files_quota),
        ));
        body.push_str("</div>");
    }
    card("storage", "Storage", &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn renders_disk_rows_with_links() {
        let payload: Storage = serde_json::from_value(json!({"disks": [
            {"path": "/home/alice", "filesystem": "zfs-home",
             "bytes_used": 21_474_836_480u64, "bytes_quota": 26_843_545_600u64,
             "bytes_percent": 80.0, "bytes_color": "yellow",
             "files_used": 100_000, "files_quota": 400_000,
             "files_percent": 25.0, "files_color": "green",
             "files_app_url": "/pun/sys/files/fs/home/alice",
             "scanned_at": "2026-07-04T08:00:00"},
        ]}))
        .unwrap();
        let html = render(&payload);
        assert!(html.contains("href=\"/pun/sys/files/fs/home/alice\""));
        assert!(html.contains("20.0 GB / 25.0 GB"));
        assert!(html.contains("100000 / 400000 files"));
        assert!(html.contains("bg-yellow"));
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0.0 B");
        assert_eq!(human_bytes(1_536), "1.5 KB");
        assert_eq!(human_bytes(1_073_741_824), "1.0 GB");
        assert_eq!(human_bytes(3 * 1_099_511_627_776), "3.0 TB");
    }
}
