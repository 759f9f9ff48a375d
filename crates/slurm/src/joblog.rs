//! An in-memory job-log "filesystem" with Unix-flavoured ownership.
//!
//! The Job Overview page's output/error tabs read the job's log files; the
//! paper notes the feature "inherits file permissions from the file system
//! so users cannot check job output and error logs from other users" and
//! only serves the most recent 1000 lines (§7). Both rules live here.

use parking_lot::RwLock;
use std::collections::HashMap;

/// Maximum lines the tail view returns, per the paper.
pub const TAIL_LIMIT: usize = 1_000;

#[derive(Debug, Clone)]
struct LogFile {
    owner: String,
    lines: Vec<String>,
}

/// Errors from log access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    NotFound(String),
    PermissionDenied { path: String, owner: String },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::NotFound(p) => write!(f, "{p}: no such file"),
            LogError::PermissionDenied { path, .. } => write!(f, "{path}: permission denied"),
        }
    }
}

impl std::error::Error for LogError {}

/// The tail of a log file, with 1-based line numbers for the viewer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogTail {
    pub path: String,
    pub total_lines: usize,
    /// `(line_number, text)` pairs, oldest first.
    pub lines: Vec<(usize, String)>,
    /// True when lines were omitted because the file exceeds the limit.
    pub truncated: bool,
}

/// Thread-safe in-memory log store.
#[derive(Debug, Default)]
pub struct JobLogFs {
    files: RwLock<HashMap<String, LogFile>>,
}

impl JobLogFs {
    pub fn new() -> JobLogFs {
        JobLogFs::default()
    }

    /// Create (or replace) a file owned by `owner`.
    pub fn write(&self, path: &str, owner: &str, lines: Vec<String>) {
        self.files.write().insert(
            path.to_string(),
            LogFile {
                owner: owner.to_string(),
                lines,
            },
        );
    }

    /// Append lines to a file, creating it if needed.
    pub fn append(&self, path: &str, owner: &str, new_lines: impl IntoIterator<Item = String>) {
        let mut files = self.files.write();
        let file = files.entry(path.to_string()).or_insert_with(|| LogFile {
            owner: owner.to_string(),
            lines: Vec::new(),
        });
        file.lines.extend(new_lines);
    }

    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    pub fn owner(&self, path: &str) -> Option<String> {
        self.files.read().get(path).map(|f| f.owner.clone())
    }

    pub fn line_count(&self, path: &str) -> Option<usize> {
        self.files.read().get(path).map(|f| f.lines.len())
    }

    /// Does the file open with `line`? How a writer that appends knows the
    /// file is still the one it began.
    pub fn first_line_is(&self, path: &str, line: &str) -> bool {
        let files = self.files.read();
        files
            .get(path)
            .and_then(|f| f.lines.first())
            .map(String::as_str)
            == Some(line)
    }

    /// Read up to `limit` trailing lines as `reader`. Fails unless the
    /// reader owns the file (ownership inheritance, paper §2.4/§7).
    pub fn tail(&self, path: &str, reader: &str, limit: usize) -> Result<LogTail, LogError> {
        let files = self.files.read();
        let file = files
            .get(path)
            .ok_or_else(|| LogError::NotFound(path.to_string()))?;
        if file.owner != reader && reader != "root" {
            return Err(LogError::PermissionDenied {
                path: path.to_string(),
                owner: file.owner.clone(),
            });
        }
        let total = file.lines.len();
        let start = total.saturating_sub(limit);
        Ok(LogTail {
            path: path.to_string(),
            total_lines: total,
            lines: file.lines[start..]
                .iter()
                .enumerate()
                .map(|(i, l)| (start + i + 1, l.clone()))
                .collect(),
            truncated: start > 0,
        })
    }

    /// The standard dashboard tail (paper's 1000-line rule).
    pub fn tail_default(&self, path: &str, reader: &str) -> Result<LogTail, LogError> {
        self.tail(path, reader, TAIL_LIMIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with(path: &str, owner: &str, n: usize) -> JobLogFs {
        let fs = JobLogFs::new();
        fs.write(path, owner, (1..=n).map(|i| format!("line {i}")).collect());
        fs
    }

    #[test]
    fn owner_reads_full_tail() {
        let fs = fs_with("/home/alice/slurm-1.out", "alice", 5);
        let tail = fs.tail_default("/home/alice/slurm-1.out", "alice").unwrap();
        assert_eq!(tail.total_lines, 5);
        assert!(!tail.truncated);
        assert_eq!(tail.lines[0], (1, "line 1".to_string()));
        assert_eq!(tail.lines[4], (5, "line 5".to_string()));
    }

    #[test]
    fn others_are_denied() {
        let fs = fs_with("/home/alice/slurm-1.out", "alice", 5);
        let err = fs
            .tail_default("/home/alice/slurm-1.out", "bob")
            .unwrap_err();
        assert!(matches!(err, LogError::PermissionDenied { .. }));
        // root bypasses, as on a real filesystem.
        assert!(fs.tail_default("/home/alice/slurm-1.out", "root").is_ok());
    }

    #[test]
    fn missing_file() {
        let fs = JobLogFs::new();
        assert_eq!(
            fs.tail_default("/nope", "alice").unwrap_err(),
            LogError::NotFound("/nope".to_string())
        );
        assert!(!fs.exists("/nope"));
    }

    #[test]
    fn tail_limits_to_1000_lines() {
        let fs = fs_with("/x", "alice", 2_500);
        let tail = fs.tail_default("/x", "alice").unwrap();
        assert_eq!(tail.lines.len(), TAIL_LIMIT);
        assert!(tail.truncated);
        assert_eq!(tail.total_lines, 2_500);
        // Line numbers point at the true positions in the file.
        assert_eq!(tail.lines[0].0, 1_501);
        assert_eq!(tail.lines.last().unwrap().0, 2_500);
    }

    #[test]
    fn append_accumulates() {
        let fs = JobLogFs::new();
        fs.append("/y", "bob", vec!["a".to_string()]);
        fs.append("/y", "bob", vec!["b".to_string(), "c".to_string()]);
        assert_eq!(fs.line_count("/y"), Some(3));
        assert_eq!(fs.owner("/y"), Some("bob".to_string()));
        let tail = fs.tail("/y", "bob", 2).unwrap();
        assert_eq!(tail.lines, vec![(2, "b".to_string()), (3, "c".to_string())]);
        assert!(tail.truncated);
    }

    #[test]
    fn concurrent_append_and_read() {
        let fs = std::sync::Arc::new(JobLogFs::new());
        fs.write("/z", "alice", Vec::new());
        let writer = {
            let fs = fs.clone();
            std::thread::spawn(move || {
                for i in 0..500 {
                    fs.append("/z", "alice", vec![format!("w{i}")]);
                }
            })
        };
        for _ in 0..100 {
            let _ = fs.tail("/z", "alice", 10);
        }
        writer.join().unwrap();
        assert_eq!(fs.line_count("/z"), Some(500));
    }
}
