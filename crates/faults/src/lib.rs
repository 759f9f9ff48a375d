//! Deterministic fault injection for the simulator's daemons.
//!
//! Real clusters fail in mundane ways: `slurmctld` times out under a
//! scheduling storm, `slurmdbd` lags hours behind, `sacct` prints half a
//! table and exits. The dashboard's whole caching architecture exists to
//! survive that (paper §2.2.2), so the simulator must be able to *produce*
//! it — reproducibly, or chaos tests cannot assert anything.
//!
//! The model: a [`FaultPlan`] is a seed plus a list of [`FaultRule`]s. Each
//! rule names a daemon and an RPC (either may be `"*"`), a [`FaultKind`],
//! a probability, and optionally a sim-time activity window and/or a flap
//! cycle. Daemons own a [`FaultHost`]; every RPC calls
//! [`FaultHost::check`], which returns a [`FaultCheck`] describing what to
//! inflict on this call. Whether a given call fires is a pure function of
//! `(seed, daemon, rpc, per-rpc call index, rule index)` plus the sim
//! clock, so the same seed always yields the same fault schedule.
//!
//! When no plan is installed the check is a single `Relaxed` atomic load, so
//! chaos support costs the production path nothing measurable.

use hpcdash_simtime::{SharedClock, Timestamp};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a matching rule does to the call.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The call fails outright with this message (e.g. connection refused).
    Error(String),
    /// The call takes `micros` extra microseconds of service time (burned
    /// on the daemon's thread, like `hpcdash_slurm`'s `RpcCostModel`
    /// spin-wait, so it shows up in real latency measurements and can
    /// overrun deadlines).
    Latency { micros: u64 },
    /// Command output is deterministically corrupted at the CLI boundary:
    /// truncated mid-table, mangled header, or digits smashed. Parsers must
    /// turn this into `Err`, never a panic.
    Garble,
    /// `slurmdbd` stops applying `sync_active` mirror updates: accounting
    /// queries keep answering, but from an increasingly stale mirror.
    Lag,
    /// The daemon dies outright. Every RPC hard-fails with "connection
    /// refused" while it is down; `down_secs` of sim time later the host
    /// hands out a restart token ([`FaultHost::take_restart`]) and the
    /// daemon's next tick runs crash recovery. Unlike the soft kinds, a
    /// crash is *stateful*: once triggered, refusal persists until the
    /// restart is consumed, and per-RPC call counters freeze so the seeded
    /// schedule of every other rule is unaffected by the outage.
    Crash { down_secs: u64 },
}

/// A flap cycle: within each `period_secs` window the target is down for
/// the first `down_secs` seconds, then up for the remainder.
///
/// Boundary semantics (pinned by tests): the rule is active iff
/// `now % period_secs < down_secs`. So at exactly `t = down_secs` the
/// phase has left the down range — that second is the first *up* second —
/// and at exactly `t = period_secs` the phase wraps to 0, which is *down*
/// again. Down intervals are `[k*period, k*period + down)`, half-open like
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flap {
    pub period_secs: u64,
    pub down_secs: u64,
}

/// One scripted fault: where it applies, what it does, when, how often.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Daemon name (`"slurmctld"`, `"slurmdbd"`, `"slurmcli"`) or `"*"`.
    pub daemon: String,
    /// RPC / command name (`"squeue"`, `"sacct"`, ...) or `"*"`.
    pub rpc: String,
    pub kind: FaultKind,
    /// Chance each matching call fires, in `[0, 1]`. Decided by a seeded
    /// hash of the per-RPC call index, so it is deterministic per seed.
    pub probability: f64,
    /// Active only inside `[start, end)` of sim time, if set.
    pub window: Option<(Timestamp, Timestamp)>,
    /// Active only during the down phase of this cycle, if set. The phase
    /// is anchored at sim-time zero so ticks land identically across runs.
    pub flap: Option<Flap>,
}

impl FaultRule {
    /// A hard failure of `rpc` on `daemon`, firing on every matching call.
    pub fn error(daemon: &str, rpc: &str, message: &str) -> FaultRule {
        FaultRule {
            daemon: daemon.to_string(),
            rpc: rpc.to_string(),
            kind: FaultKind::Error(message.to_string()),
            probability: 1.0,
            window: None,
            flap: None,
        }
    }

    /// Added service time on every matching call.
    pub fn latency(daemon: &str, rpc: &str, micros: u64) -> FaultRule {
        FaultRule {
            daemon: daemon.to_string(),
            rpc: rpc.to_string(),
            kind: FaultKind::Latency { micros },
            probability: 1.0,
            window: None,
            flap: None,
        }
    }

    /// Deterministically corrupted command output.
    pub fn garble(daemon: &str, rpc: &str) -> FaultRule {
        FaultRule {
            daemon: daemon.to_string(),
            rpc: rpc.to_string(),
            kind: FaultKind::Garble,
            probability: 1.0,
            window: None,
            flap: None,
        }
    }

    /// Kill `daemon` outright: while crashed, *every* RPC (the rule's own
    /// target is `"*"`) is refused with "connection refused"; the daemon
    /// restarts `down_secs` of sim time later, at its next tick. Combine
    /// with [`FaultRule::during`] to script when the crash fires — a rule
    /// without a window re-crashes the daemon on the first RPC after every
    /// recovery.
    pub fn crash(daemon: &str, down_secs: u64) -> FaultRule {
        FaultRule {
            daemon: daemon.to_string(),
            rpc: "*".to_string(),
            kind: FaultKind::Crash { down_secs },
            probability: 1.0,
            window: None,
            flap: None,
        }
    }

    /// Restrict the rule to a sim-time window `[start, end)`.
    pub fn during(mut self, start: Timestamp, end: Timestamp) -> FaultRule {
        self.window = Some((start, end));
        self
    }

    /// Make the rule flap: down for `down_secs` out of every `period_secs`.
    pub fn flapping(mut self, period_secs: u64, down_secs: u64) -> FaultRule {
        self.flap = Some(Flap {
            period_secs: period_secs.max(1),
            down_secs,
        });
        self
    }

    /// Fire on roughly `p` of matching calls instead of all of them.
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    fn matches_target(&self, daemon: &str, rpc: &str) -> bool {
        (self.daemon == "*" || self.daemon == daemon) && (self.rpc == "*" || self.rpc == rpc)
    }

    fn active_at(&self, now: Timestamp) -> bool {
        if let Some((start, end)) = self.window {
            if now.0 < start.0 || now.0 >= end.0 {
                return false;
            }
        }
        if let Some(flap) = self.flap {
            let phase = now.0 % flap.period_secs;
            if phase >= flap.down_secs {
                return false;
            }
        }
        true
    }
}

/// A seeded, scriptable schedule of faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Check every rule for nonsense that would otherwise silently
    /// misbehave: a probability outside `[0, 1]` (or NaN) never fires or
    /// always fires without saying so, and a window with `start >= end`
    /// matches nothing. [`FaultHost::install`] runs this and panics on the
    /// descriptive error; `FaultHost::try_install` surfaces it.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.probability.is_finite() || !(0.0..=1.0).contains(&rule.probability) {
                return Err(FaultPlanError::Probability {
                    rule: idx,
                    daemon: rule.daemon.clone(),
                    rpc: rule.rpc.clone(),
                    value: rule.probability,
                });
            }
            if let Some((start, end)) = rule.window {
                if start.0 >= end.0 {
                    return Err(FaultPlanError::EmptyWindow {
                        rule: idx,
                        daemon: rule.daemon.clone(),
                        rpc: rule.rpc.clone(),
                        start,
                        end,
                    });
                }
            }
        }
        Ok(())
    }

    /// Decide what happens to call number `call_idx` of `rpc` on `daemon`
    /// at sim time `now`. Pure: same inputs, same answer. All matching
    /// latency rules accumulate; the first matching failure-kind rule (in
    /// plan order) wins.
    pub(crate) fn decide(
        &self,
        daemon: &str,
        rpc: &str,
        call_idx: u64,
        now: Timestamp,
    ) -> FaultCheck {
        let mut check = FaultCheck::none();
        for (rule_idx, rule) in self.rules.iter().enumerate() {
            if !rule.matches_target(daemon, rpc) || !rule.active_at(now) {
                continue;
            }
            if rule.probability < 1.0 {
                let h = mix(
                    self.seed,
                    &[
                        fnv(daemon.as_bytes()),
                        fnv(rpc.as_bytes()),
                        call_idx,
                        rule_idx as u64,
                    ],
                );
                // Top 53 bits -> uniform fraction in [0, 1).
                let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
                if frac >= rule.probability {
                    continue;
                }
            }
            match &rule.kind {
                FaultKind::Latency { micros } => check.latency_micros += micros,
                FaultKind::Error(msg) => {
                    if check.failure.is_none() {
                        check.failure = Some(FaultFailure::Error(msg.clone()));
                    }
                }
                FaultKind::Garble => {
                    if check.failure.is_none() {
                        let gs = mix(self.seed, &[fnv(rpc.as_bytes()), call_idx, 0x6a72_626c]);
                        check.failure = Some(FaultFailure::Garble(gs));
                    }
                }
                FaultKind::Lag => {
                    if check.failure.is_none() {
                        check.failure = Some(FaultFailure::Lag);
                    }
                }
                FaultKind::Crash { down_secs } => {
                    // A crash overrides softer failures regardless of plan
                    // order — the daemon is *gone*, not merely erroring.
                    // Among crash rules the first still wins.
                    if !matches!(check.failure, Some(FaultFailure::Crash { .. })) {
                        check.failure = Some(FaultFailure::Crash {
                            down_secs: *down_secs,
                        });
                    }
                }
            }
        }
        check
    }
}

/// Why a [`FaultPlan`] was rejected at install time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// `probability` is NaN, infinite, or outside `[0, 1]`.
    Probability {
        rule: usize,
        daemon: String,
        rpc: String,
        value: f64,
    },
    /// `window` has `start >= end`: the half-open `[start, end)` interval
    /// is empty, so the rule could never fire.
    EmptyWindow {
        rule: usize,
        daemon: String,
        rpc: String,
        start: Timestamp,
        end: Timestamp,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Probability {
                rule,
                daemon,
                rpc,
                value,
            } => write!(
                f,
                "fault rule #{rule} ({daemon}/{rpc}): probability {value} is outside [0, 1]"
            ),
            FaultPlanError::EmptyWindow {
                rule,
                daemon,
                rpc,
                start,
                end,
            } => write!(
                f,
                "fault rule #{rule} ({daemon}/{rpc}): window [{}, {}) is empty (start >= end)",
                start.0, end.0
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The failure half of a [`FaultCheck`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultFailure {
    /// Fail the call with this message.
    Error(String),
    /// Corrupt the call's text output with this garble seed.
    Garble(u64),
    /// Skip the dbd mirror sync.
    Lag,
    /// Kill the daemon: this call and every later one are refused until
    /// the restart `down_secs` later. [`FaultHost`] converts this into a
    /// "connection refused" [`FaultFailure::Error`] and tracks the down
    /// state; callers of the pure `FaultPlan::decide` see it raw.
    Crash { down_secs: u64 },
}

/// What to inflict on one call: extra service time, then maybe a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCheck {
    pub latency_micros: u64,
    pub failure: Option<FaultFailure>,
}

impl FaultCheck {
    #[inline]
    pub fn none() -> FaultCheck {
        FaultCheck {
            latency_micros: 0,
            failure: None,
        }
    }

    #[inline]
    pub fn is_none(&self) -> bool {
        self.latency_micros == 0 && self.failure.is_none()
    }

    /// Burn the injected latency on the calling thread (same spin-wait
    /// technique as the RPC cost model, so it is visible to wall-clock
    /// latency measurements and deadline checks).
    #[inline]
    pub fn burn(&self) {
        burn_micros(self.latency_micros);
    }

    /// If this check says the call fails hard, the error message.
    pub fn error(&self) -> Option<&str> {
        match &self.failure {
            Some(FaultFailure::Error(msg)) => Some(msg),
            _ => None,
        }
    }

    /// Apply this check to a rendered command output: burn latency, then
    /// fail or garble the text as scripted. This is the one-liner daemons'
    /// CLI boundary uses.
    pub fn apply_to_output(&self, text: String) -> Result<String, String> {
        self.burn();
        match &self.failure {
            None | Some(FaultFailure::Lag) => Ok(text),
            Some(FaultFailure::Error(msg)) => Err(msg.clone()),
            Some(FaultFailure::Garble(seed)) => Ok(garble_text(&text, *seed)),
            Some(FaultFailure::Crash { .. }) => Err(refused_message("daemon")),
        }
    }
}

/// Spin-burn `micros` microseconds of service time.
pub(crate) fn burn_micros(micros: u64) {
    if micros == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_micros(micros);
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Deterministically corrupt rendered command output. Three modes, chosen
/// by the seed: truncate mid-table, mangle the header row, or smash digits.
/// Never returns an empty string — `parse_squeue("")` is a legal empty
/// queue, and a garble must be *noticed*.
pub fn garble_text(text: &str, seed: u64) -> String {
    const MARKER: &str = "slurm_load error: partial record";
    if text.is_empty() {
        return MARKER.to_string();
    }
    match seed % 3 {
        // Truncate somewhere in the middle (cuts a row or the header in
        // half). Keep at least one byte so the output is non-empty.
        0 => {
            let cut = 1 + (seed / 3) as usize % text.len().max(1);
            let mut at = cut.min(text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let mut out = text[..at.max(1)].to_string();
            out.push('\n');
            out.push_str(MARKER);
            out
        }
        // Mangle the header row: separators become semicolons, so strict
        // header validation fails.
        1 => {
            let mut lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
            if let Some(first) = lines.first_mut() {
                let mangled = first.replace('|', ";").replace(' ', "_");
                if mangled == *first {
                    first.insert_str(0, "??");
                } else {
                    *first = mangled;
                }
            }
            lines.join("\n")
        }
        // Smash digits in the body to '?', so numeric fields fail to parse
        // (and a digit-free output still gets a poisoned prefix).
        _ => {
            let smashed: String = text
                .chars()
                .map(|c| if c.is_ascii_digit() { '?' } else { c })
                .collect();
            if smashed == text {
                format!("??{smashed}")
            } else {
                smashed
            }
        }
    }
}

/// Counters the host keeps about what it inflicted (read by tests/metrics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    pub checks: u64,
    pub errors: u64,
    pub garbles: u64,
    pub lags: u64,
    pub latency_micros: u64,
    /// Crash transitions (up -> down), not refused calls.
    pub crashes: u64,
    /// RPCs refused with "connection refused" while the daemon was down.
    pub refused: u64,
}

#[derive(Default)]
struct StatCells {
    checks: AtomicU64,
    errors: AtomicU64,
    garbles: AtomicU64,
    lags: AtomicU64,
    latency_micros: AtomicU64,
    crashes: AtomicU64,
    refused: AtomicU64,
}

struct Armed {
    plan: Arc<FaultPlan>,
    clock: SharedClock,
    /// Per-RPC call counters, so each RPC stream gets its own deterministic
    /// schedule regardless of interleaving with other RPCs.
    calls: Mutex<HashMap<String, u64>>,
}

/// The daemon-is-dead record a [`FaultHost`] keeps between the crash and
/// the consumed restart. Owns a clock handle so the down window can be
/// evaluated even if the plan is cleared mid-outage.
struct CrashState {
    crashed_at: Timestamp,
    down_until: Timestamp,
    clock: SharedClock,
}

/// Handed to the daemon's tick exactly once per outage, when the scripted
/// down window has elapsed: "you died at `crashed_at`; run recovery now."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartToken {
    pub crashed_at: Timestamp,
    pub down_until: Timestamp,
}

/// The message every refused RPC carries, shaped like real Slurm's
/// "Unable to contact slurm controller (connect failure)".
fn refused_message(daemon: &str) -> String {
    format!("connection refused: {daemon} is not responding")
}

/// A daemon's hook into the fault plan. Owned by `Slurmctld`/`Slurmdbd`
/// (and the CLI boundary via the daemons); disarmed it is a single relaxed
/// atomic load per call.
pub struct FaultHost {
    daemon: &'static str,
    armed: AtomicBool,
    inner: RwLock<Option<Armed>>,
    /// Raised while a [`CrashState`] is held; checked before `armed` so a
    /// dead daemon refuses RPCs even through plan churn.
    down_flag: AtomicBool,
    down: Mutex<Option<CrashState>>,
    stats: StatCells,
}

impl FaultHost {
    pub fn new(daemon: &'static str) -> FaultHost {
        FaultHost {
            daemon,
            armed: AtomicBool::new(false),
            inner: RwLock::new(None),
            down_flag: AtomicBool::new(false),
            down: Mutex::new(None),
            stats: StatCells::default(),
        }
    }

    pub fn daemon(&self) -> &'static str {
        self.daemon
    }

    /// Install a plan. The clock rides along because not every daemon owns
    /// one (`Slurmdbd` is clockless); windows and flaps are evaluated
    /// against it.
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — a scripted
    /// scenario with an impossible rule is a bug in the script, and the
    /// panic message names the offending rule. Use
    /// `FaultHost::try_install` to handle the error instead.
    pub fn install(&self, plan: Arc<FaultPlan>, clock: SharedClock) {
        if let Err(e) = self.try_install(plan, clock) {
            panic!("invalid fault plan: {e}");
        }
    }

    /// Like [`FaultHost::install`], but an invalid plan is returned as an
    /// error (and nothing is installed) instead of panicking.
    pub(crate) fn try_install(
        &self,
        plan: Arc<FaultPlan>,
        clock: SharedClock,
    ) -> Result<(), FaultPlanError> {
        plan.validate()?;
        let mut slot = self.inner.write();
        *slot = Some(Armed {
            plan,
            clock,
            calls: Mutex::new(HashMap::new()),
        });
        self.armed.store(true, Ordering::Release);
        Ok(())
    }

    /// Remove any installed plan, restoring the zero-overhead path. Also
    /// revives a crashed daemon without recovery — tests only; the real
    /// restart path is [`FaultHost::take_restart`].
    pub fn clear(&self) {
        self.armed.store(false, Ordering::Release);
        *self.inner.write() = None;
        *self.down.lock() = None;
        self.down_flag.store(false, Ordering::Release);
    }

    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// True while the daemon is crashed (refusing all RPCs). Stays true
    /// after the down window elapses until the daemon's tick consumes the
    /// restart token — a dead process doesn't answer between its scheduled
    /// restart and the moment init actually respawns it.
    #[inline]
    pub fn is_down(&self) -> bool {
        self.down_flag.load(Ordering::Relaxed)
    }

    /// If the daemon is crashed and its down window has elapsed, consume
    /// the crash state and return the restart token. The daemon's tick
    /// calls this first thing; `Some` means "run crash recovery now".
    pub fn take_restart(&self) -> Option<RestartToken> {
        if !self.down_flag.load(Ordering::Relaxed) {
            return None;
        }
        let mut down = self.down.lock();
        let state = down.as_ref()?;
        if state.clock.now().0 < state.down_until.0 {
            return None;
        }
        let state = down.take().expect("checked above");
        self.down_flag.store(false, Ordering::Release);
        Some(RestartToken {
            crashed_at: state.crashed_at,
            down_until: state.down_until,
        })
    }

    /// Consult the plan for one call of `rpc`. The disarmed fast path is a
    /// single relaxed load and a constant return.
    #[inline]
    pub fn check(&self, rpc: &str) -> FaultCheck {
        if self.down_flag.load(Ordering::Relaxed) {
            return self.refuse();
        }
        if !self.armed.load(Ordering::Relaxed) {
            return FaultCheck::none();
        }
        self.check_armed(rpc)
    }

    /// Every RPC against a dead daemon: "connection refused", no latency,
    /// and — deliberately — no per-RPC counter increment, so the seeded
    /// schedules of all other rules are frozen across the outage.
    #[cold]
    fn refuse(&self) -> FaultCheck {
        self.stats.refused.fetch_add(1, Ordering::Relaxed);
        FaultCheck {
            latency_micros: 0,
            failure: Some(FaultFailure::Error(refused_message(self.daemon))),
        }
    }

    #[cold]
    fn check_armed(&self, rpc: &str) -> FaultCheck {
        let (check, clock) = {
            let guard = self.inner.read();
            let Some(armed) = guard.as_ref() else {
                return FaultCheck::none();
            };
            let idx = {
                let mut calls = armed.calls.lock();
                let slot = calls.entry(rpc.to_string()).or_insert(0);
                let idx = *slot;
                *slot += 1;
                idx
            };
            let check = armed.plan.decide(self.daemon, rpc, idx, armed.clock.now());
            if matches!(check.failure, Some(FaultFailure::Crash { .. })) {
                // The dying call consumes no schedule index: roll the
                // counter back so every rule's seeded stream resumes after
                // recovery exactly where it left off (refused calls while
                // down never touch the counters either).
                if let Some(slot) = armed.calls.lock().get_mut(rpc) {
                    *slot = slot.saturating_sub(1);
                }
            }
            (check, armed.clock.clone())
        };
        self.stats.checks.fetch_add(1, Ordering::Relaxed);
        self.stats
            .latency_micros
            .fetch_add(check.latency_micros, Ordering::Relaxed);
        match &check.failure {
            Some(FaultFailure::Error(_)) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            Some(FaultFailure::Garble(_)) => {
                self.stats.garbles.fetch_add(1, Ordering::Relaxed);
            }
            Some(FaultFailure::Lag) => {
                self.stats.lags.fetch_add(1, Ordering::Relaxed);
            }
            Some(FaultFailure::Crash { down_secs }) => {
                return self.crash_now(*down_secs, clock);
            }
            None => {}
        }
        check
    }

    /// Transition up -> down: record when the daemon died and when the
    /// scripted restart lands, then refuse this call like any other.
    fn crash_now(&self, down_secs: u64, clock: SharedClock) -> FaultCheck {
        let now = clock.now();
        let mut down = self.down.lock();
        if down.is_none() {
            *down = Some(CrashState {
                crashed_at: now,
                down_until: Timestamp(now.0 + down_secs),
                clock,
            });
            self.down_flag.store(true, Ordering::Release);
            self.stats.crashes.fetch_add(1, Ordering::Relaxed);
        }
        drop(down);
        self.refuse()
    }

    pub fn stats(&self) -> FaultStats {
        FaultStats {
            checks: self.stats.checks.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            garbles: self.stats.garbles.load(Ordering::Relaxed),
            lags: self.stats.lags.load(Ordering::Relaxed),
            latency_micros: self.stats.latency_micros.load(Ordering::Relaxed),
            crashes: self.stats.crashes.load(Ordering::Relaxed),
            refused: self.stats.refused.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for FaultHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHost")
            .field("daemon", &self.daemon)
            .field("armed", &self.is_armed())
            .finish()
    }
}

/// FNV-1a over bytes: stable, cheap, good enough to key the mix below.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64-style mixing of the seed with a word stream. Deterministic
/// and well-distributed; this is the entire source of fault randomness.
fn mix(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &w in words {
        h ^= w;
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

/// Seeded-jitter exponential backoff delay for attempt `attempt` (0-based):
/// `min(cap, base * 2^attempt)` scaled by a deterministic jitter factor in
/// `[0.5, 1.5)` keyed on `(seed, key, attempt)`. Full-jitter style spreads
/// a fleet of retriers; the determinism keeps chaos tests reproducible.
pub fn backoff_delay_ms(base_ms: u64, cap_ms: u64, attempt: u32, seed: u64, key: &str) -> u64 {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(20)).min(cap_ms);
    let h = mix(seed, &[fnv(key.as_bytes()), attempt as u64]);
    let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64; // [0.5, 1.5)
    ((exp as f64) * jitter) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::SimClock;

    fn clock_at(t: u64) -> (SimClock, SharedClock) {
        let c = SimClock::new(Timestamp(t));
        let shared = c.shared();
        (c, shared)
    }

    #[test]
    fn disarmed_check_is_none_and_counts_nothing() {
        let host = FaultHost::new("slurmctld");
        for _ in 0..100 {
            assert!(host.check("squeue").is_none());
        }
        assert_eq!(host.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = |seed| {
            Arc::new(
                FaultPlan::new(seed)
                    .rule(FaultRule::error("slurmctld", "squeue", "down").with_probability(0.3)),
            )
        };
        let run = |seed| {
            let host = FaultHost::new("slurmctld");
            let (_c, shared) = clock_at(1_000);
            host.install(plan(seed), shared);
            (0..200)
                .map(|_| host.check("squeue").failure.is_some())
                .collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let fired = a.iter().filter(|f| **f).count();
        assert!(
            (30..=90).contains(&fired),
            "p=0.3 over 200 calls fired {fired} times"
        );
    }

    #[test]
    fn wildcards_windows_and_flaps() {
        let plan = Arc::new(
            FaultPlan::new(1)
                .rule(FaultRule::error("*", "*", "outage").during(Timestamp(100), Timestamp(200))),
        );
        let (clk, shared) = clock_at(50);
        let host = FaultHost::new("slurmdbd");
        host.install(plan, shared);
        assert!(host.check("sacct").failure.is_none(), "before window");
        clk.advance(50); // t=100
        assert!(host.check("sacct").failure.is_some(), "inside window");
        clk.advance(100); // t=200 (exclusive end)
        assert!(host.check("sacct").failure.is_none(), "after window");

        let plan = Arc::new(
            FaultPlan::new(1)
                .rule(FaultRule::error("slurmctld", "squeue", "flap").flapping(60, 20)),
        );
        let (clk, shared) = clock_at(0);
        let host = FaultHost::new("slurmctld");
        host.install(plan, shared);
        assert!(host.check("squeue").failure.is_some(), "phase 0 is down");
        clk.advance(20); // phase 20: up
        assert!(host.check("squeue").failure.is_none(), "phase 20 is up");
        clk.advance(40); // phase 0 of next period
        assert!(host.check("squeue").failure.is_some(), "next period down");
    }

    #[test]
    fn latency_accumulates_and_first_failure_wins() {
        let plan = Arc::new(
            FaultPlan::new(3)
                .rule(FaultRule::latency("slurmctld", "*", 5))
                .rule(FaultRule::latency("*", "squeue", 7))
                .rule(FaultRule::error("slurmctld", "squeue", "first"))
                .rule(FaultRule::error("*", "*", "second")),
        );
        let check = plan.decide("slurmctld", "squeue", 0, Timestamp(0));
        assert_eq!(check.latency_micros, 12);
        assert_eq!(check.error(), Some("first"));
    }

    #[test]
    fn garble_is_deterministic_never_empty_and_detectable() {
        let rendered = "JOBID|USER|STATE\n101|alice|RUNNING\n102|bob|PENDING\n";
        for seed in 0..64u64 {
            let g1 = garble_text(rendered, seed);
            let g2 = garble_text(rendered, seed);
            assert_eq!(g1, g2, "same seed, same garble");
            assert!(!g1.is_empty());
            assert_ne!(g1, rendered, "garble must change the text");
        }
        assert!(!garble_text("", 5).is_empty(), "empty input still poisoned");
    }

    #[test]
    fn apply_to_output_routes_by_failure() {
        let ok = FaultCheck::none().apply_to_output("x".into());
        assert_eq!(ok, Ok("x".to_string()));
        let err = FaultCheck {
            latency_micros: 0,
            failure: Some(FaultFailure::Error("boom".into())),
        }
        .apply_to_output("x".into());
        assert_eq!(err, Err("boom".to_string()));
        let garbled = FaultCheck {
            latency_micros: 0,
            failure: Some(FaultFailure::Garble(9)),
        }
        .apply_to_output("A|B\n1|2\n".into())
        .unwrap();
        assert_ne!(garbled, "A|B\n1|2\n");
    }

    #[test]
    fn per_rpc_counters_are_independent() {
        // A p<1 rule must see call index 0,1,2... per RPC, not a shared
        // stream, so adding an unrelated RPC doesn't shift the schedule.
        let plan = Arc::new(
            FaultPlan::new(11)
                .rule(FaultRule::error("slurmctld", "squeue", "x").with_probability(0.5)),
        );
        let solo: Vec<bool> = {
            let host = FaultHost::new("slurmctld");
            let (_c, s) = clock_at(0);
            host.install(plan.clone(), s);
            (0..50)
                .map(|_| host.check("squeue").failure.is_some())
                .collect()
        };
        let interleaved: Vec<bool> = {
            let host = FaultHost::new("slurmctld");
            let (_c, s) = clock_at(0);
            host.install(plan, s);
            (0..50)
                .map(|_| {
                    host.check("sinfo");
                    host.check("squeue").failure.is_some()
                })
                .collect()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn backoff_delays_are_bounded_and_jittered() {
        let mut delays = Vec::new();
        for key in 0..100 {
            let d = backoff_delay_ms(10, 1_000, 2, 42, &format!("tab-{key}"));
            // base 10ms * 2^2 = 40ms, jitter in [0.5, 1.5) -> [20, 60).
            assert!((20..60).contains(&d), "delay {d} out of jitter range");
            delays.push(d);
        }
        delays.sort_unstable();
        delays.dedup();
        assert!(delays.len() > 10, "jitter must spread a fleet of keys");
        // Cap binds: attempt 30 would otherwise overflow the budget.
        let capped = backoff_delay_ms(10, 100, 30, 42, "k");
        assert!(capped < 150);
        // Deterministic per (seed, key, attempt).
        assert_eq!(
            backoff_delay_ms(10, 1_000, 3, 7, "k"),
            backoff_delay_ms(10, 1_000, 3, 7, "k")
        );
    }

    #[test]
    fn validate_rejects_probability_outside_unit_interval() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let mut rule = FaultRule::error("slurmctld", "squeue", "x");
            rule.probability = bad;
            let plan = FaultPlan::new(1).rule(rule);
            let err = plan.validate().expect_err("must reject");
            match &err {
                FaultPlanError::Probability {
                    rule, daemon, rpc, ..
                } => {
                    assert_eq!(*rule, 0);
                    assert_eq!(daemon, "slurmctld");
                    assert_eq!(rpc, "squeue");
                }
                other => panic!("wrong error: {other:?}"),
            }
            assert!(
                err.to_string().contains("outside [0, 1]"),
                "descriptive message, got: {err}"
            );
            // try_install surfaces it and installs nothing.
            let host = FaultHost::new("slurmctld");
            let (_c, s) = clock_at(0);
            assert!(host.try_install(Arc::new(plan), s).is_err());
            assert!(!host.is_armed());
        }
    }

    #[test]
    fn validate_rejects_empty_window() {
        for (start, end) in [(200, 100), (100, 100)] {
            let plan = FaultPlan::new(1)
                .rule(FaultRule::error("*", "*", "x").during(Timestamp(start), Timestamp(end)));
            let err = plan.validate().expect_err("must reject start >= end");
            assert!(matches!(err, FaultPlanError::EmptyWindow { .. }));
            assert!(
                err.to_string().contains("start >= end"),
                "descriptive message, got: {err}"
            );
        }
        // A legal window still passes.
        let plan = FaultPlan::new(1)
            .rule(FaultRule::error("*", "*", "x").during(Timestamp(100), Timestamp(101)));
        assert!(plan.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn install_panics_on_invalid_plan() {
        let mut rule = FaultRule::error("slurmctld", "squeue", "x");
        rule.probability = 2.0;
        let host = FaultHost::new("slurmctld");
        let (_c, s) = clock_at(0);
        host.install(Arc::new(FaultPlan::new(1).rule(rule)), s);
    }

    #[test]
    fn flap_phase_boundaries_are_pinned() {
        // Down intervals are [k*period, k*period + down): t = down_secs is
        // the first UP second, t = period_secs wraps to phase 0 and is
        // DOWN again. These are the exact-boundary cases the doc promises.
        let rule = FaultRule::error("slurmctld", "squeue", "flap").flapping(60, 20);
        assert!(rule.active_at(Timestamp(0)), "phase 0 is down");
        assert!(rule.active_at(Timestamp(19)), "last down second");
        assert!(
            !rule.active_at(Timestamp(20)),
            "t = down_secs is the first up second (half-open)"
        );
        assert!(!rule.active_at(Timestamp(59)), "last up second");
        assert!(
            rule.active_at(Timestamp(60)),
            "t = period_secs wraps to phase 0: down again"
        );
        assert!(rule.active_at(Timestamp(79)));
        assert!(!rule.active_at(Timestamp(80)));
    }

    #[test]
    fn crash_refuses_until_restart_token_is_consumed() {
        let plan = Arc::new(
            FaultPlan::new(9)
                .rule(FaultRule::crash("slurmctld", 30).during(Timestamp(100), Timestamp(101))),
        );
        let (clk, shared) = clock_at(50);
        let host = FaultHost::new("slurmctld");
        host.install(plan, shared);
        assert!(
            host.check("squeue").failure.is_none(),
            "alive before window"
        );
        assert!(!host.is_down());

        clk.advance(50); // t=100: the crash rule fires on the next RPC
        let check = host.check("squeue");
        let msg = check.error().expect("refused");
        assert!(msg.contains("connection refused"), "got: {msg}");
        assert!(host.is_down());
        assert_eq!(host.stats().crashes, 1);

        // Every RPC while down is refused, and the restart is not due yet.
        clk.advance(10); // t=110
        assert!(host.check("sinfo").error().is_some());
        assert!(host.take_restart().is_none(), "down window not elapsed");
        assert!(host.is_down());

        // Past down_until the daemon STAYS dead until a tick consumes the
        // token (a dead process doesn't answer before init respawns it).
        clk.advance(25); // t=135 >= 130
        assert!(host.check("squeue").error().is_some(), "still refusing");
        let token = host.take_restart().expect("restart due");
        assert_eq!(token.crashed_at, Timestamp(100));
        assert_eq!(token.down_until, Timestamp(130));
        assert!(!host.is_down());
        assert!(host.take_restart().is_none(), "token consumed once");

        // Back up: the window has passed, so no re-crash.
        assert!(host.check("squeue").failure.is_none());
        let stats = host.stats();
        assert_eq!(stats.crashes, 1);
        assert!(stats.refused >= 3);
    }

    #[test]
    fn crash_freezes_per_rpc_counters_for_other_rules() {
        // A probabilistic error rule's schedule must be identical whether
        // or not an outage happened in the middle: refused calls bypass
        // the per-RPC counters entirely.
        let base = FaultRule::error("slurmctld", "squeue", "x").with_probability(0.5);
        let solo: Vec<bool> = {
            let plan = Arc::new(FaultPlan::new(11).rule(base.clone()));
            let host = FaultHost::new("slurmctld");
            let (_c, s) = clock_at(0);
            host.install(plan, s);
            (0..50)
                .map(|_| host.check("squeue").failure.is_some())
                .collect()
        };
        let with_outage: Vec<bool> = {
            let plan = Arc::new(
                FaultPlan::new(11)
                    .rule(base)
                    .rule(FaultRule::crash("slurmctld", 5).during(Timestamp(100), Timestamp(101))),
            );
            let host = FaultHost::new("slurmctld");
            let (clk, s) = clock_at(0);
            host.install(plan, s);
            let mut seen = Vec::new();
            for _ in 0..25 {
                seen.push(host.check("squeue").failure.is_some());
            }
            clk.advance(100); // t=100: crash on next call
            assert!(host.check("squeue").error().is_some());
            for _ in 0..20 {
                host.check("squeue"); // all refused, counters frozen
            }
            clk.advance(10); // t=110: restart due
            host.take_restart().expect("restart");
            for _ in 0..25 {
                seen.push(host.check("squeue").failure.is_some());
            }
            seen
        };
        assert_eq!(
            solo, with_outage,
            "outage must not shift the seeded schedule"
        );
    }

    #[test]
    fn clear_restores_fast_path() {
        let host = FaultHost::new("slurmctld");
        let (_c, s) = clock_at(0);
        host.install(
            Arc::new(FaultPlan::new(1).rule(FaultRule::error("*", "*", "down"))),
            s,
        );
        assert!(host.check("squeue").failure.is_some());
        host.clear();
        assert!(!host.is_armed());
        assert!(host.check("squeue").is_none());
    }
}
