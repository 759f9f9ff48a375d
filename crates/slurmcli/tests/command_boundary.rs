//! The streaming command boundary against the one it replaced.
//!
//! `reference/` holds the pre-streaming formatters, renderers and parsers
//! verbatim. For arbitrary jobs, nodes and associations the new writers must
//! produce the reference's text byte for byte; for arbitrary, table-like,
//! hand-picked and `garble_text`-corrupted input the new parsers must return
//! what the reference returns — the same record or the same `Err` string.
//! Results are compared through `Debug`, so a `NaN` load equals itself.

mod reference;

use hpcdash_faults::garble_text;
use hpcdash_simtime::{
    format_duration, format_timestamp, parse_duration, parse_timelimit, parse_timestamp, Clock,
    Elapsed, TimeLimit, Timestamp,
};
use hpcdash_slurm::assoc::{Account, AccountUsage};
use hpcdash_slurm::ctld::AssocRecord;
use hpcdash_slurm::job::{
    ArrayMeta, Job, JobId, JobRequest, JobState, JobStats, PendingReason, UsageProfile,
};
use hpcdash_slurm::node::{AdminFlag, Node};
use hpcdash_slurm::partition::{Partition, PartitionState};
use hpcdash_slurm::tres::{format_mem_mb, parse_mem_mb, MemMb, Tres};
use hpcdash_slurmcli::{scontrol, sinfo, squeue};
use hpcdash_workload::{Scenario, ScenarioConfig};
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng as _;

// ---- generators -------------------------------------------------------------

/// Seconds on every scale the grammar changes shape at: under a minute,
/// under a day, one day and more, a hundred hours and more, and past the
/// year 9999 (a `u64` of seconds cannot name a year before 1970).
fn arb_secs(rng: &mut TestRng) -> u64 {
    match rng.gen_range(0..6) {
        0 => rng.gen_range(0..60),
        1 => rng.gen_range(0..86_400),
        2 => rng.gen_range(86_400..360_000),
        3 => rng.gen_range(360_000..100_000_000),
        4 => rng.gen_range(1_700_000_000..1_900_000_000),
        _ => rng.gen_range(253_402_300_800..400_000_000_000_000),
    }
}

/// Free text with everything a column must survive: separators of every
/// command, line breaks, other whitespace, multi-byte chars — or nothing.
fn arb_text(rng: &mut TestRng) -> String {
    const POOL: [char; 17] = [
        'a', 'Z', '7', '_', '-', '.', '/', '|', '\n', ' ', '\t', '\x0b', '=', ',', 'é', '中',
        '\u{a0}',
    ];
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

/// A plain word, for columns the renderers copy as they are.
fn arb_word(rng: &mut TestRng) -> String {
    let len = rng.gen_range(1..9);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

fn arb_words(rng: &mut TestRng) -> Vec<String> {
    let len = rng.gen_range(0..4);
    (0..len).map(|_| arb_word(rng)).collect()
}

fn arb_limit(rng: &mut TestRng) -> TimeLimit {
    if rng.gen_bool(0.2) {
        TimeLimit::Unlimited
    } else {
        TimeLimit::Limited(arb_secs(rng))
    }
}

struct ArbJob;

impl Strategy for ArbJob {
    type Value = Job;

    fn generate(&self, rng: &mut TestRng) -> Job {
        let mut req = JobRequest::simple(&arb_word(rng), &arb_word(rng), &arb_word(rng), 1);
        req.name = arb_text(rng);
        req.qos = arb_word(rng);
        req.nodes = rng.gen_range(0..40);
        req.cpus_per_node = rng.gen_range(0..300);
        req.mem_mb_per_node = match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(0..64) * 1_024,
            2 => rng.gen_range(0..8) * 1_024 * 1_024,
            _ => rng.gen_range(0..10_000_000),
        };
        req.gpus_per_node = rng.gen_range(0..3) * rng.gen_range(0..9);
        req.time_limit = arb_limit(rng);
        req.dependency = rng.gen_bool(0.2).then(|| JobId(rng.gen()));
        req.comment = rng.gen_bool(0.5).then(|| arb_text(rng));
        req.work_dir = arb_text(rng);
        req.usage = UsageProfile::batch(60);
        let state = JobState::ALL[rng.gen_range(0..JobState::ALL.len())];
        let submit = arb_secs(rng);
        let start = rng.gen_bool(0.7).then(|| submit + arb_secs(rng) % 100_000);
        let end = start
            .filter(|_| rng.gen_bool(0.6))
            .map(|s| s + arb_secs(rng));
        Job {
            id: JobId(rng.gen()),
            array: rng.gen_bool(0.3).then(|| ArrayMeta {
                array_job_id: JobId(rng.gen()),
                task_id: rng.gen(),
                max_concurrent: None,
            }),
            req,
            state,
            reason: rng
                .gen_bool(0.5)
                .then(|| PendingReason::ALL[rng.gen_range(0..PendingReason::ALL.len())]),
            priority: rng.gen(),
            submit_time: Timestamp(submit),
            eligible_time: Timestamp(submit + rng.gen_range(0..100)),
            start_time: start.map(Timestamp),
            end_time: end.map(Timestamp),
            nodes: arb_words(rng),
            exit_code: rng
                .gen_bool(0.5)
                .then(|| (rng.gen_range(-2..256), rng.gen_range(0..16))),
            stats: rng.gen_bool(0.5).then(|| JobStats {
                total_cpu_secs: arb_secs(rng),
                max_rss_mb: rng.gen_range(0..3_000_000),
            }),
            stdout_path: arb_text(rng),
            stderr_path: arb_text(rng),
        }
    }
}

struct ArbNode;

impl Strategy for ArbNode {
    type Value = Node;

    fn generate(&self, rng: &mut TestRng) -> Node {
        let mut node = Node::new(
            arb_word(rng),
            rng.gen_range(0..300),
            rng.gen(),
            rng.gen_range(0..3) * rng.gen_range(0..9),
        );
        node.gpu_type = rng.gen_bool(0.5).then(|| arb_word(rng));
        node.features = arb_words(rng);
        node.partitions = arb_words(rng);
        node.os = arb_text(rng);
        node.alloc = Tres::new(rng.gen_range(0..400), rng.gen(), rng.gen_range(0..9), 1);
        node.cpu_load = match rng.gen_range(0..4) {
            0 => 0.0,
            1 => f64::NAN,
            2 => rng.gen_range(0.0..1.0e9),
            _ => rng.gen_range(0.0..128.0),
        };
        node.admin_flag = [
            AdminFlag::None,
            AdminFlag::None,
            AdminFlag::Drain,
            AdminFlag::Maint,
            AdminFlag::Down,
        ][rng.gen_range(0..5)];
        node.reason = rng.gen_bool(0.3).then(|| arb_text(rng));
        node.boot_time = Timestamp(arb_secs(rng));
        node.last_busy = Timestamp(arb_secs(rng));
        node
    }
}

struct ArbAssoc;

impl Strategy for ArbAssoc {
    type Value = AssocRecord;

    fn generate(&self, rng: &mut TestRng) -> AssocRecord {
        let mut account = Account::new(arb_word(rng));
        account.grp_cpu_limit = rng.gen_bool(0.5).then(|| rng.gen());
        account.grp_gpu_mins_limit = rng.gen_bool(0.5).then(|| rng.gen());
        AssocRecord {
            account,
            usage: AccountUsage {
                cpus_running: rng.gen(),
                cpus_queued: rng.gen(),
                gpu_seconds: rng.gen(),
                ..AccountUsage::default()
            },
            members: arb_words(rng),
        }
    }
}

/// Partitions over `nodes`: members in any order, some missing, some twice.
fn arb_partitions(rng: &mut TestRng, nodes: &[Node]) -> Vec<Partition> {
    (0..rng.gen_range(0..4))
        .map(|_| {
            let mut members: Vec<String> = nodes
                .iter()
                .filter(|_| rng.gen_bool(0.6))
                .map(|n| n.name.clone())
                .collect();
            if rng.gen_bool(0.3) {
                members.push("ghost".to_string());
                members.reverse();
            }
            let mut part = Partition::new(arb_word(rng))
                .with_nodes(members)
                .with_max_time(arb_limit(rng));
            part.is_default = rng.gen_bool(0.3);
            part.state = [
                PartitionState::Up,
                PartitionState::Down,
                PartitionState::Drain,
                PartitionState::Inactive,
            ][rng.gen_range(0..4)];
            part
        })
        .collect()
}

/// Text close to the field grammar: digits, the separators of timestamps,
/// durations, memory and TRES strings, signs, blanks.
const FIELD_LIKE: &str = "[0-9TZ:+.,=/ GMKTgmkcpunodersUL-]{0,24}";

/// The hand-picked field inputs the general grammar accepts or rejects in
/// ways the fixed shapes must not change.
const FIELD_EDGES: [&str; 40] = [
    "",
    " ",
    "+1:02:03",
    "1:02:03",
    "100:00:00",
    "101:02:03",
    "4-04:00:00",
    "0-05",
    "2-12:30",
    "2-00",
    "45",
    "30:00",
    "00:00:60",
    "99:99:99",
    "1-2-3",
    "1:2:3:4",
    "-1:00:00",
    " 01:02:03 ",
    "1-+2:03:04",
    "2026-07-04T09:05:07",
    "2026-07-04T09:05:07Z",
    "2026-07-04T09:05:07ZZ",
    " 2026-07-04T09:05:07 ",
    "2026-07-45T09:05:07",
    "2026-13-04T09:05:07",
    "2026-00-04T09:05:07",
    "2026-07-04T24:05:07",
    "+026-07-04T09:05:07",
    "0999-01-01T00:00:00",
    "1969-12-31T23:59:59",
    "1970-01-01T00:00:00",
    "10000-01-01T00:00:00",
    "99999-12-31T23:59:59",
    "2026-7-4T9:5:7",
    "Unknown",
    "4096",
    " 12G ",
    "1.5G",
    "007g",
    "1024K",
];

/// Both table generators of `fuzz_parsers.rs`.
const ARBITRARY: &str = "\\PC{0,400}";
const TABLE_LIKE: &str = "[0-9A-Za-z?|:=._\\- \n]{0,300}";

// ---- what agreement means ---------------------------------------------------

/// The two answers print alike: a borrowed record and its owned reference
/// are different types with the same `Debug` text.
fn same(what: &str, input: &str, new: impl std::fmt::Debug, old: impl std::fmt::Debug) {
    assert_eq!(
        format!("{new:?}"),
        format!("{old:?}"),
        "{what} on {input:?}"
    );
}

/// The five field parsers on one input.
fn field_parsers_agree(s: &str) {
    same(
        "parse_timestamp",
        s,
        parse_timestamp(s),
        reference::parse_timestamp(s),
    );
    same(
        "parse_duration",
        s,
        parse_duration(s),
        reference::parse_duration(s),
    );
    same(
        "parse_timelimit",
        s,
        parse_timelimit(s),
        reference::parse_timelimit(s),
    );
    same(
        "parse_mem_mb",
        s,
        parse_mem_mb(s),
        reference::parse_mem_mb(s),
    );
    same("Tres::parse", s, Tres::parse(s), reference::tres_parse(s));
}

/// The eight table parsers on one input.
fn table_parsers_agree(s: &str) {
    use hpcdash_slurmcli as new;
    same(
        "parse_sacct",
        s,
        new::parse_sacct(s),
        reference::sacct::parse_sacct(s),
    );
    same(
        "parse_squeue",
        s,
        new::parse_squeue(s),
        reference::squeue::parse_squeue(s),
    );
    same(
        "parse_squeue_long",
        s,
        new::parse_squeue_long(s),
        reference::squeue::parse_squeue_long(s),
    );
    same(
        "parse_sinfo_summary",
        s,
        new::parse_sinfo_summary(s),
        reference::sinfo::parse_sinfo_summary(s),
    );
    same(
        "parse_sinfo_usage",
        s,
        new::parse_sinfo_usage(s),
        reference::sinfo::parse_sinfo_usage(s),
    );
    same(
        "parse_show_job",
        s,
        new::parse_show_job(s),
        reference::scontrol::parse_show_job(s),
    );
    same(
        "parse_show_node",
        s,
        new::parse_show_node(s).map(|nodes| {
            nodes
                .iter()
                .map(reference::ScontrolNode::from_borrowed)
                .collect::<Vec<_>>()
        }),
        reference::scontrol::parse_show_node(s),
    );
    same(
        "parse_show_assoc",
        s,
        new::parse_show_assoc(s),
        reference::scontrol::parse_show_assoc(s),
    );
}

/// Render with both, demand the same bytes, and hand them back.
fn same_text(what: &str, new: String, old: String) -> String {
    assert_eq!(new, old, "{what}");
    new
}

/// One text, then the same text cut short, garbled three ways and with a
/// line doubled: every parser must still agree with its reference.
fn table_parsers_agree_on_and_around(text: &str, seed: u64) {
    table_parsers_agree(text);
    for s in seed..seed + 3 {
        table_parsers_agree(&garble_text(text, s));
    }
    let cut = (0..=text.len() * (seed % 97) as usize / 97)
        .rev()
        .find(|at| text.is_char_boundary(*at))
        .unwrap_or(0);
    table_parsers_agree(&text[..cut]);
    table_parsers_agree(&format!("{}\n{}", &text[cut..], &text[..cut]));
}

// ---- the grammar elements ---------------------------------------------------

/// Cases for the properties whose inputs come straight from the generators
/// above rather than through a `Strategy`.
const CASES: usize = 256;

#[test]
fn grammar_writers_match_the_reference() {
    let mut rng = TestRng::for_test("grammar_writers_match_the_reference");
    // Both sides of every change of shape, then the scales between them.
    let edges = [
        0,
        59,
        60,
        3_599,
        3_600,
        86_399,
        86_400,
        359_999,
        360_000,
        253_402_300_799,
        253_402_300_800,
    ];
    for case in 0..CASES {
        let secs = edges
            .get(case)
            .copied()
            .unwrap_or_else(|| arb_secs(&mut rng));
        let t = Timestamp(secs);
        assert_eq!(t.to_string(), reference::format_timestamp(t));
        assert_eq!(t.to_slurm(), reference::format_timestamp(t));
        assert_eq!(format_timestamp(t), reference::format_timestamp(t));
        assert_eq!(Elapsed(secs).to_string(), reference::format_duration(secs));
        assert_eq!(format_duration(secs), reference::format_duration(secs));
        let limit = arb_limit(&mut rng);
        assert_eq!(limit.to_string(), reference::timelimit_to_slurm(limit));
        assert_eq!(limit.to_slurm(), reference::timelimit_to_slurm(limit));
        let job = ArbJob.generate(&mut rng);
        for mem in [job.req.mem_mb_per_node, rng.gen()] {
            assert_eq!(MemMb(mem).to_string(), reference::format_mem_mb(mem));
            assert_eq!(format_mem_mb(mem), reference::format_mem_mb(mem));
        }
        let any = Tres::new(rng.gen(), rng.gen(), rng.gen(), rng.gen());
        for tres in [job.req.total_tres(), any, Tres::default()] {
            assert_eq!(tres.to_string(), reference::tres_to_slurm(tres));
            assert_eq!(tres.to_slurm(), reference::tres_to_slurm(tres));
        }
        assert_eq!(job.display_id(), reference::display_id(&job));
        assert_eq!(job.shown_id().to_string(), reference::display_id(&job));
    }
    // The widest forms fit the writers' stack space.
    let widest = Tres::new(u32::MAX, u64::MAX, u32::MAX, u32::MAX);
    assert_eq!(widest.to_string(), reference::tres_to_slurm(widest));
    let last = Timestamp(u64::MAX);
    assert_eq!(last.to_string(), reference::format_timestamp(last));
    assert_eq!(
        Elapsed(u64::MAX).to_string(),
        reference::format_duration(u64::MAX)
    );
}

#[test]
fn field_parsers_match_the_reference_on_what_the_writers_emit() {
    let mut rng = TestRng::for_test("field_parsers_match_the_reference_on_what_the_writers_emit");
    for _ in 0..CASES {
        let secs = arb_secs(&mut rng);
        let job = ArbJob.generate(&mut rng);
        let texts = [
            Timestamp(secs).to_string(),
            Elapsed(secs).to_string(),
            arb_limit(&mut rng).to_string(),
            MemMb(job.req.mem_mb_per_node).to_string(),
            MemMb(rng.gen()).to_string(),
            job.req.total_tres().to_string(),
        ];
        for text in &texts {
            field_parsers_agree(text);
            // ...and one char off it, in every position.
            for at in 0..text.len() {
                for other in ["0", "9", ":", "-", "T", " ", "G", "x", ""] {
                    let mut changed = text.clone();
                    changed.replace_range(at..at + 1, other);
                    field_parsers_agree(&changed);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn field_parsers_match_the_reference_on_field_like_text(s in FIELD_LIKE) {
        field_parsers_agree(&s);
    }

    #[test]
    fn field_parsers_match_the_reference_on_arbitrary_text(s in "\\PC{0,40}") {
        field_parsers_agree(&s);
    }
}

#[test]
fn field_parsers_match_the_reference_on_the_edges() {
    for s in FIELD_EDGES {
        field_parsers_agree(s);
    }
    // The edges are edges: both sides of each rule are present.
    assert_eq!(parse_duration("+1:02:03"), Some(3_723));
    assert_eq!(parse_duration("100:00:00"), Some(360_000));
    assert_eq!(parse_duration("0-05"), Some(5), "a zero day is no day");
    assert_eq!(parse_duration("1-2-3"), None);
    assert_eq!(
        parse_timestamp("2026-07-04T09:05:07ZZ"),
        parse_timestamp("2026-07-04T09:05:07")
    );
    assert_eq!(parse_timestamp("0999-01-01T00:00:00"), None);
    assert_eq!(
        parse_timestamp("10000-01-01T00:00:00"),
        Some(Timestamp(253_402_300_800))
    );
    assert_eq!(parse_mem_mb(" 12G "), Some(12 * 1_024));
    assert_eq!(parse_mem_mb("1.5G"), Some(1_536));
    assert_eq!(parse_mem_mb("4096"), Some(4_096));
}

// ---- the eight render/parse pairs -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn job_tables_match_the_reference(
        jobs in proptest::collection::vec(ArbJob, 0..8),
        now in 0u64..2_000_000_000,
        seed in 0u64..10_000,
    ) {
        let now = Timestamp(now);
        let texts = [
            same_text(
                "sacct",
                hpcdash_slurmcli::sacct::render(&jobs, now),
                reference::sacct::render(&jobs, now),
            ),
            same_text(
                "squeue",
                squeue::render(&jobs, now),
                reference::squeue::render(&jobs, now),
            ),
            same_text(
                "squeue long",
                squeue::render_long(&jobs, now),
                reference::squeue::render_long(&jobs, now),
            ),
        ];
        for text in &texts {
            table_parsers_agree_on_and_around(text, seed);
        }
        for job in &jobs {
            let text = same_text(
                "scontrol show job",
                scontrol::render_job(job, now),
                reference::scontrol::render_job(job, now),
            );
            table_parsers_agree_on_and_around(&text, seed);
            prop_assert_eq!(
                squeue::display_name(&job.req.name),
                reference::squeue::display_name(&job.req.name)
            );
        }
    }

    #[test]
    fn node_tables_match_the_reference(
        nodes in proptest::collection::vec(ArbNode, 0..8),
        seed in 0u64..10_000,
    ) {
        let dump = |render: fn(&Node) -> String| {
            nodes.iter().map(render).collect::<Vec<_>>().join("\n")
        };
        let text = same_text(
            "scontrol show node",
            dump(scontrol::render_node),
            dump(reference::scontrol::render_node),
        );
        table_parsers_agree_on_and_around(&text, seed);
        // Indented first lines, blank and blank-ish lines, CRLF: the record
        // splitter borrows from the text, the reference copied lines.
        table_parsers_agree(&format!("   \n\t\n   {}\n\n \r\n{text}", text.replace('\n', "\r\n")));

        let mut rng = TestRng::for_test(&format!("partitions-{seed}"));
        let partitions = arb_partitions(&mut rng, &nodes);
        let texts = [
            same_text(
                "sinfo summary",
                sinfo::render_summary(&partitions, &nodes),
                reference::sinfo::render_summary(&partitions, &nodes),
            ),
            same_text(
                "sinfo usage",
                sinfo::render_usage(&partitions, &nodes),
                reference::sinfo::render_usage(&partitions, &nodes),
            ),
        ];
        for text in &texts {
            table_parsers_agree_on_and_around(text, seed);
        }
        // `sinfo` prints states in lower case and the parser raises them
        // again: chars that only *become* ASCII letters must keep doing so.
        table_parsers_agree(&texts[0].replace("idle", "\u{131}dle**+").replace("mixed", "MiXeD~~~~~~~~~~~~~~~~~~~~"));
    }

    #[test]
    fn assoc_tables_match_the_reference(
        records in proptest::collection::vec(ArbAssoc, 0..8),
        seed in 0u64..10_000,
    ) {
        let text = same_text(
            "scontrol show assoc",
            scontrol::render_assoc(&records),
            reference::scontrol::render_assoc(&records),
        );
        table_parsers_agree_on_and_around(&text, seed);
    }

    #[test]
    fn table_parsers_match_the_reference_on_arbitrary_text(s in ARBITRARY) {
        table_parsers_agree(&s);
    }

    #[test]
    fn table_parsers_match_the_reference_on_tablelike_text(s in TABLE_LIKE) {
        table_parsers_agree(&s);
    }
}

/// Where two rules of one parser meet, the order they are applied in shows
/// in the `Err` string: which wins must not have changed.
#[test]
fn table_parsers_match_the_reference_on_the_edges() {
    let usage = "PARTITION AVAIL CPUS(A/I/O/T) GPUS(A/T) NODES(U/T)\n";
    let node = "NodeName=a001 Arch=x86_64\n   CPUAlloc=0 CPUTot=16 CPULoad=0.00\n   \
                RealMemory=64000 AllocMem=0\n   State=IDLE Partitions=cpu\n   OS=Linux\n";
    let sacct_header = hpcdash_slurmcli::SACCT_FIELDS.join("|");
    let edges = [
        // A column with a part too many AND a part that is no number.
        format!("{usage}cpu up 1/2/3/4/x 0/0 1/1\n"),
        format!("{usage}cpu up 1/2/3/4/5 0/0 1/1\n"),
        format!("{usage}cpu up 1/2/3 x/0 1/1\n"),
        format!("{usage}cpu up 1/2/3 0/0 1/y\n"),
        format!("{usage}cpu up 1/2/3/4 0/0/0 1/1\n"),
        format!("{usage}cpu up 1/2/3/4 0/0 1/1 extra\n"),
        format!("{usage}cpu up +1/2/3/4 0/0 1/1\n\n   \ngpu down 0/0/0/0 0/0 0/0"),
        // `sinfo` states are raised to upper case before they are matched:
        // a dotless i becomes an I, suffix marks may repeat without bound,
        // and a bad count is reported before a bad state.
        "HDR\ncpu* up 1-00:00:00 2 \u{131}dle a,b\n".to_string(),
        "HDR\ncpu up infinite 1 mixed~~~~~~~~~~~~~~~~~~~~~~~~ a\n".to_string(),
        "HDR\ncpu up 1:00 1 maintenance# a\n".to_string(),
        "HDR\ncpu up 1:00 1 maintenancex a\n".to_string(),
        "HDR\ncpu up 1:00 1 \u{df}\u{df}\u{df}\u{df}\u{df}\u{df}\u{df}\u{df}\u{df} a\n".to_string(),
        "HDR\ncpu up 1:00 x nostate a\n".to_string(),
        // Columns part at every blank Unicode knows, a vertical tab and a
        // no-break space among them, not only at the ASCII ones.
        "HDR\ncpu\x0bup 1:00 1 idle\x0ca,b\n".to_string(),
        "HDR\ncpu up 1:00\u{a0}1 idle a,b\n".to_string(),
        "HDR\ncpu up\u{2003}1/2/3/4\x0b0/0 1/1\n".to_string(),
        node.replace("CPUTot=16 ", "CPUTot=16\x0b")
            .replace("AllocMem=0", "\u{a0}AllocMem=0"),
        // Records: a tab indents nothing, a first line may be indented,
        // a key may come twice, a record may lack what the next one has.
        node.replace("\n   ", "\n\t"),
        format!("   {node}{node}"),
        format!("{node}\r\n{}", node.replace('\n', "\r\n")),
        format!("{node}   State=DOWN NodeName=b\nNodeName=c\n"),
        node.replace("CPUTot=16", "CPUTot=x CPUAlloc=y"),
        node.replace("State=IDLE", "State=idle"),
        node.replace("CPULoad=0.00", "CPULoad=NaN"),
        // Tables: the header is checked before the rows are, blank lines
        // are skipped wherever they are, CRLF ends a line.
        format!("{sacct_header}\r\n\r\n"),
        format!("{sacct_header} \n"),
        format!("{sacct_header}\n{}\n", "|".repeat(20)),
        format!("{sacct_header}\n{}\n", "|".repeat(21)),
        format!("{sacct_header}\n1|n|u|a|p|q|R|||||UNLIMITED|1|1|cpu=1|1M|||0:0|None|\n"),
        format!("{sacct_header}\n1|n|u|a|p|q|R||||0|infinite|1|1||1M|x|y|0:0|None|c|\n"),
        "\nJOBID PARTITION NAME USER ST TIME NODES NODELIST(REASON)\n".to_string(),
        " JOBID PARTITION NAME USER ST TIME NODES NODELIST(REASON) \n\n1 p n u R 0:00 x (None)\n"
            .to_string(),
        "JOBID PARTITION NAME USER ST TIME NODES NODELIST(REASON)\n1 p n u R 1-00 1 a,b\n"
            .to_string(),
    ];
    for text in &edges {
        table_parsers_agree_on_and_around(text, 7);
    }
    // They are edges: each of these differs from its neighbour only in
    // which rule fires.
    let err = |text: &str| hpcdash_slurmcli::parse_sinfo_usage(text).unwrap_err();
    assert_eq!(
        err(&format!("{usage}cpu up 1/2/3/4/x 0/0 1/1\n")),
        "bad cpus \"1/2/3/4/x\""
    );
    assert!(err(&format!("{usage}cpu up 1/2/3/4/5 0/0 1/1\n"))
        .starts_with("malformed sinfo usage tuple"));
    assert_eq!(
        hpcdash_slurmcli::parse_sinfo_summary("HDR\ncpu up 1:00 1 \u{131}dle a\n").unwrap()[0]
            .state,
        hpcdash_slurm::node::NodeState::Idle
    );
    assert_eq!(
        hpcdash_slurmcli::parse_show_node(&node.replace("\n   ", "\n\t")).unwrap_err(),
        "missing State"
    );
    let doubled = format!("   {node}{node}");
    let twice = hpcdash_slurmcli::parse_show_node(&doubled).unwrap();
    assert_eq!(twice.len(), 2);
}

/// A live cluster, as in `fuzz_parsers.rs`: the daemons' own rows (shared
/// `Arc<Job>`s, snapshot-indexed `sinfo`) through both renderers, then clean,
/// garbled and truncated through both parsers.
#[test]
fn live_output_matches_the_reference_clean_garbled_and_truncated() {
    let scenario = Scenario::build(ScenarioConfig::small());
    let mut driver = scenario.driver(3_600);
    driver.advance(3_600);
    let now = scenario.clock.now();

    let jobs = scenario
        .ctld
        .query_jobs(&hpcdash_slurm::ctld::JobQuery::all());
    let recs = scenario
        .dbd
        .query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
    let owned: Vec<Job> = recs.iter().map(|j| Job::clone(j)).collect();
    let nodes = scenario.ctld.query_nodes();
    let snap = scenario.ctld.query_cluster();
    assert!(jobs.len() > 5 && recs.len() > 5, "a populated cluster");

    let corpora = [
        same_text(
            "squeue",
            squeue::render(&jobs, now),
            reference::squeue::render(&jobs, now),
        ),
        same_text(
            "squeue long",
            squeue::render_long(&jobs, now),
            reference::squeue::render_long(&jobs, now),
        ),
        same_text(
            "sacct",
            hpcdash_slurmcli::sacct::render(&recs, now),
            reference::sacct::render(&owned, now),
        ),
        same_text(
            "scontrol show node",
            hpcdash_slurmcli::show_node(&scenario.ctld, None).expect("no fault installed"),
            nodes
                .iter()
                .map(reference::scontrol::render_node)
                .collect::<Vec<_>>()
                .join("\n"),
        ),
        same_text(
            "scontrol show assoc",
            hpcdash_slurmcli::show_assoc(&scenario.ctld, None).expect("no fault installed"),
            reference::scontrol::render_assoc(&scenario.ctld.query_assoc(None)),
        ),
        same_text(
            "sinfo summary",
            sinfo::render_summary_snapshot(&snap),
            reference::sinfo::render_summary_snapshot(&snap),
        ),
        same_text(
            "sinfo usage",
            sinfo::render_usage_snapshot(&snap),
            reference::sinfo::render_usage_snapshot(&snap),
        ),
    ];
    for clean in &corpora {
        table_parsers_agree(clean);
        for seed in 0..96u64 {
            table_parsers_agree(&garble_text(clean, seed));
        }
    }
    let text = &corpora[1];
    for at in (0..text.len()).filter(|i| text.is_char_boundary(*i)) {
        table_parsers_agree(&text[..at]);
    }
}
