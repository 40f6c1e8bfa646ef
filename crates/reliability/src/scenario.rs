//! The scenario DSL: declarative fault campaigns, one plain-text file each.
//!
//! De Florio & Deconinck's REL argues that fault scenarios and recovery
//! strategies should be an explicit, testable *language* separate from
//! the functional code. This module is the language half of that idea —
//! a sibling of the SHARPE-style [`crate::lang`] parser: a line-oriented
//! syntax that declares, per scenario, the campaign family, trial count
//! and seed, family parameters (or, for `cluster` scenarios, a full
//! topology / fault-plan / contract declaration), and an acceptance
//! clause with an optional golden digest pin.
//!
//! Parsing produces a typed [`ScenarioSpec`] with every probability
//! range-checked at parse time; the compiler onto the executable
//! campaign runners lives downstream (in `nlft-bbw`), keeping this
//! crate dependency-free. [`format_scenario`] renders the canonical
//! form; `format → parse` round-trips every spec to an identical AST,
//! which the zoo property test pins.
//!
//! ```
//! use nlft_reliability::scenario::{parse_scenario, FamilyParams};
//!
//! let spec = parse_scenario(
//!     "scenario smoke\n\
//!      family net_storm\n\
//!      trials 4\n\
//!      seed 0x5708\n\
//!      params\n\
//!        cycles 20\n\
//!      end\n\
//!      end\n",
//! )
//! .unwrap();
//! assert_eq!(spec.name, "smoke");
//! assert!(matches!(spec.params, FamilyParams::NetStorm { cycles: 20, .. }));
//! ```

use std::fmt;
use std::fmt::Write as _;

/// A parse error with its 1-based line and column, plus a "did you
/// mean" hint when an unknown keyword is close to a known one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (character offset) of the offending token.
    pub col: usize,
    /// Description, including any suggestion.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// The six stations of the reference brake-by-wire cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeName {
    /// Pedal-side central unit A.
    CuA,
    /// Pedal-side central unit B.
    CuB,
    /// Front-left wheel node.
    WheelFl,
    /// Front-right wheel node.
    WheelFr,
    /// Rear-left wheel node.
    WheelRl,
    /// Rear-right wheel node.
    WheelRr,
}

impl NodeName {
    /// All six nodes in slot order.
    pub const ALL: [NodeName; 6] = [
        NodeName::CuA,
        NodeName::CuB,
        NodeName::WheelFl,
        NodeName::WheelFr,
        NodeName::WheelRl,
        NodeName::WheelRr,
    ];

    /// The DSL keyword for this node.
    pub fn keyword(self) -> &'static str {
        match self {
            NodeName::CuA => "cu_a",
            NodeName::CuB => "cu_b",
            NodeName::WheelFl => "wheel_fl",
            NodeName::WheelFr => "wheel_fr",
            NodeName::WheelRl => "wheel_rl",
            NodeName::WheelRr => "wheel_rr",
        }
    }
}

/// How a cluster station is built: one core, or two cores sharing their
/// brake state through a lock-based or LEFT-RS resource protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The stock single-core station.
    SingleCore,
    /// Dual-core with per-resource spin locks (a mid-section core death
    /// is fatal).
    DualCoreLock,
    /// Dual-core with LEFT-RS lock-free sections (rides a core death
    /// out).
    DualCoreLeftRs,
}

impl NodeKind {
    fn keyword(self) -> &'static str {
        match self {
            NodeKind::SingleCore => "single_core",
            NodeKind::DualCoreLock => "dual_core_lock",
            NodeKind::DualCoreLeftRs => "dual_core_left_rs",
        }
    }
}

/// The pedal-demand profile driving a cluster scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PedalSpec {
    /// A constant demand in force counts.
    Constant(u32),
    /// `min(base + slope * cycle, max)` — an emergency-braking ramp.
    Ramp {
        /// Demand at cycle 0.
        base: u32,
        /// Increase per cycle.
        slope: u32,
        /// Saturation value.
        max: u32,
    },
}

/// A sensor-channel fault in a cluster scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorFaultSpec {
    /// The channel reports a constant value.
    StuckAt(u32),
    /// The channel reports truth plus a constant offset (counts).
    Offset(i64),
    /// The channel's error grows by this many counts per cycle.
    Drift(i64),
    /// The reading jitters within `truth ± amplitude` for `cycles`.
    Noise {
        /// Peak deviation in counts.
        amplitude: u32,
        /// Burst length in cycles.
        cycles: u32,
    },
}

/// A wheel-actuator fault in a cluster scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuatorFaultSpec {
    /// The actuator freezes at its current force.
    Stuck,
    /// The actuator drives toward full force by `step` counts per cycle.
    Runaway {
        /// Force increase per cycle.
        step: u32,
    },
    /// The servo nulls at `demand + 4 * offset`.
    Offset(i64),
}

/// One declarative fault-plan line of a cluster scenario. Each line
/// compiles onto one existing injector: the network plan
/// (`storm` / `rates` / `dynamic` / `blackout`), the machine-level
/// SWIFI faults (`transient` / `stuck_at` / `intermittent` /
/// `core_death`), or the value-domain fault hooks
/// (`sensor` / `actuator` / `silence`).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultLine {
    /// Storm-profile rates on every node, scaled by `intensity`, active
    /// in cycles `[from, until)`.
    Storm {
        /// Storm intensity in `[0, 1]`.
        intensity: f64,
        /// First active cycle (inclusive).
        from: u32,
        /// First inactive cycle (`u32::MAX` = to the end).
        until: u32,
    },
    /// Explicit per-node rates (unlisted rates are zero).
    Rates {
        /// The node the rates apply to.
        node: NodeName,
        /// Per-cycle frame-corruption probability.
        corruption: f64,
        /// Per-cycle slot-omission probability.
        omission: f64,
        /// Per-cycle crash probability.
        crash: f64,
        /// Per-cycle babbling-idiot probability.
        babble: f64,
        /// Per-cycle masquerade probability.
        masquerade: f64,
        /// Per-cycle clock-glitch probability.
        clock_glitch: f64,
    },
    /// Dynamic-segment duplication / reorder rates.
    Dynamic {
        /// Per-cycle duplication probability.
        dup: f64,
        /// Per-cycle reorder probability.
        reorder: f64,
    },
    /// A correlated blackout resetting the listed nodes.
    Blackout {
        /// Cycle in which the burst hits.
        at: u32,
        /// Minimum down time per victim, in cycles.
        down: u32,
        /// Upper bound of the per-victim extra down time.
        stagger: u32,
        /// The victims.
        nodes: Vec<NodeName>,
    },
    /// One machine-level transient (drawn from the CPU-only SEU space)
    /// on a node, at a declared placement.
    Transient {
        /// Victim node.
        node: NodeName,
        /// Cluster cycle in which the fault strikes.
        cycle: u32,
        /// TEM copy index hit (0 or 1).
        copy: u32,
        /// Machine-cycle offset within the copy.
        at: u64,
    },
    /// A permanent stuck-at-one PC bit on a node.
    StuckAtPc {
        /// Victim node.
        node: NodeName,
        /// The stuck bit index (0–31).
        bit: u32,
    },
    /// A recurring burst of PC transients on a node.
    Intermittent {
        /// Victim node.
        node: NodeName,
        /// Per-job recurrence probability inside the burst.
        recurrence: f64,
        /// Burst length in jobs.
        burst: u32,
    },
    /// A core-death fault on a (dual-core) node.
    CoreDeath {
        /// Victim node.
        node: NodeName,
        /// Cluster cycle of the death.
        cycle: u32,
        /// Orderly escalated fail-silence instead of a hard crash.
        escalated: bool,
    },
    /// A pedal-sensor channel fault.
    Sensor {
        /// Channel index (0–2).
        channel: u32,
        /// The fault.
        fault: SensorFaultSpec,
        /// Onset cycle.
        onset: u32,
    },
    /// A wheel-actuator fault.
    Actuator {
        /// Wheel index (0 = FL, 1 = FR, 2 = RL, 3 = RR).
        wheel: u32,
        /// The fault.
        fault: ActuatorFaultSpec,
        /// Onset cycle.
        onset: u32,
    },
    /// Force a node silent for a window of cycles.
    Silence {
        /// Victim node.
        node: NodeName,
        /// Cycles of silence.
        cycles: u32,
    },
}

/// The full declaration of a `cluster` scenario: topology, fault plan
/// and per-wheel weakly-hard service contracts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Communication cycles per trial.
    pub cycles: u32,
    /// Pedal-demand profile.
    pub pedal: PedalSpec,
    /// Non-default node kinds (unlisted nodes are single-core).
    pub nodes: Vec<(NodeName, NodeKind)>,
    /// Enable the TTP/C-style startup protocol.
    pub startup: bool,
    /// Put every node under α-count supervision with the default
    /// escalation policy.
    pub supervise: bool,
    /// The declarative fault plan, in declaration order.
    pub faults: Vec<FaultLine>,
    /// Per-wheel `(m, k)` service contracts (FL, FR, RL, RR); `None`
    /// keeps the cluster defaults (front 1-in-8, rear 2-in-8).
    pub contracts: Option<[(u32, u32); 4]>,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            cycles: 30,
            pedal: PedalSpec::Constant(1200),
            nodes: Vec::new(),
            startup: false,
            supervise: false,
            faults: Vec::new(),
            contracts: None,
        }
    }
}

/// Family-specific parameters, defaults mirroring each campaign's stock
/// constructor so a scenario file only states its overrides.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyParams {
    /// The six-node network-storm campaign.
    NetStorm {
        /// Communication cycles per trial.
        cycles: u32,
        /// Storm intensity in `[0, 1]`.
        intensity: f64,
        /// Also inject one machine-level transient per trial.
        node_faults: bool,
    },
    /// The value-domain (sensor / command / actuator) campaign.
    ValueDomain {
        /// Communication cycles per trial.
        cycles: u32,
        /// Combined storm mode instead of single-fault coverage mode.
        combined: bool,
        /// Network storm intensity (combined mode only).
        net_intensity: f64,
    },
    /// The correlated-blackout survival campaign.
    Blackout {
        /// Healthy cycles before the blackout.
        warmup: u32,
        /// Cycles observed after the blackout.
        recovery: u32,
        /// Base reset duration per victim.
        down: u32,
        /// Maximum extra per-victim down time.
        stagger: u32,
        /// Minimum victims per trial.
        min_reset: u32,
        /// Whether the central units are in the victim pool.
        include_cus: bool,
    },
    /// The diagnosis / recovery-escalation campaign.
    Recovery {
        /// Communication cycles per trial (≥ 30).
        cycles: u32,
    },
    /// The weakly-hard miss-pattern storm campaign.
    WeaklyHard {
        /// Brake-controller jobs per trial (≤ 64).
        horizon_jobs: u32,
        /// Tolerated misses per window (`m`).
        max_misses: u32,
        /// Window length in jobs (`k`).
        window: u32,
        /// Fault inter-arrival lower bound, µs (inclusive).
        interval_lo: u64,
        /// Fault inter-arrival upper bound, µs (exclusive).
        interval_hi: u64,
        /// Release to zero force on a miss instead of holding the last
        /// commanded force.
        zero_force: bool,
    },
    /// The multicore core-death campaign.
    Multicore {
        /// Cores per node (≥ 2).
        cores: u32,
        /// Executive horizon in ticks (µs).
        horizon: u64,
        /// Probability a death is escalated fail-silence.
        escalated_p: f64,
    },
    /// The node-level SWIFI parameter-estimation campaign.
    Node {
        /// Light-weight NLFT policy instead of fail-silent.
        lightweight_nlft: bool,
    },
    /// A free-form cluster scenario.
    Cluster(ClusterSpec),
}

impl FamilyParams {
    /// The family keyword.
    pub fn family(&self) -> &'static str {
        match self {
            FamilyParams::NetStorm { .. } => "net_storm",
            FamilyParams::ValueDomain { .. } => "value_domain",
            FamilyParams::Blackout { .. } => "blackout",
            FamilyParams::Recovery { .. } => "recovery",
            FamilyParams::WeaklyHard { .. } => "weakly_hard",
            FamilyParams::Multicore { .. } => "multicore",
            FamilyParams::Node { .. } => "node",
            FamilyParams::Cluster(_) => "cluster",
        }
    }

    fn defaults(family: &str) -> Option<FamilyParams> {
        Some(match family {
            "net_storm" => FamilyParams::NetStorm {
                cycles: 30,
                intensity: 0.3,
                node_faults: true,
            },
            "value_domain" => FamilyParams::ValueDomain {
                cycles: 30,
                combined: false,
                net_intensity: 0.0,
            },
            "blackout" => FamilyParams::Blackout {
                warmup: 6,
                recovery: 40,
                down: 2,
                stagger: 2,
                min_reset: 2,
                include_cus: true,
            },
            "recovery" => FamilyParams::Recovery { cycles: 40 },
            "weakly_hard" => FamilyParams::WeaklyHard {
                horizon_jobs: 64,
                max_misses: 2,
                window: 8,
                interval_lo: 40,
                interval_hi: 160,
                zero_force: false,
            },
            "multicore" => FamilyParams::Multicore {
                cores: 2,
                horizon: 4_000,
                escalated_p: 0.25,
            },
            "node" => FamilyParams::Node {
                lightweight_nlft: true,
            },
            "cluster" => FamilyParams::Cluster(ClusterSpec::default()),
            _ => return None,
        })
    }
}

const FAMILIES: [&str; 8] = [
    "net_storm",
    "value_domain",
    "blackout",
    "recovery",
    "weakly_hard",
    "multicore",
    "node",
    "cluster",
];

/// The acceptance clause: what the campaign outcome must look like for
/// the scenario to pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AcceptSpec {
    /// Golden CRC-32 digest of the canonical outcome rendering; `None`
    /// means unpinned (print-only).
    pub pin: Option<u32>,
    /// Exact expected counts for named verdicts.
    pub verdicts: Vec<(String, u64)>,
    /// Verdicts or metrics that must be zero (e.g. silent failures).
    pub require_zero: Vec<String>,
    /// Ceilings on named metrics (e.g. braking-distance excess).
    pub max: Vec<(String, u64)>,
}

/// One parsed scenario: the typed AST the campaign compiler consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the `scenario` header word).
    pub name: String,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Master seed; every trial forks a labelled stream off it, so the
    /// outcome is bit-identical at any thread count.
    pub seed: u64,
    /// Family selection plus its parameters.
    pub params: FamilyParams,
    /// The acceptance clause.
    pub accept: AcceptSpec,
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

/// Classic dynamic-programming edit distance, for keyword hints.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest candidate within edit distance 2, if any.
fn suggest<'a>(word: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .copied()
        .map(|c| (levenshtein(word, c), c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

fn err(line: usize, col: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        col,
        message: message.into(),
    }
}

/// An "unknown keyword" error with a did-you-mean hint when one is close.
fn unknown(line: usize, col: usize, what: &str, word: &str, candidates: &[&str]) -> ScenarioError {
    let mut message = format!("unknown {what} `{word}`");
    if let Some(s) = suggest(word, candidates) {
        let _ = write!(message, " — did you mean `{s}`?");
    } else {
        let _ = write!(message, " (expected one of: {})", candidates.join(", "));
    }
    err(line, col, message)
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    line: usize,
    col: usize,
    text: &'a str,
}

/// One non-empty source line as tokens (comments stripped).
#[derive(Debug, Clone)]
struct Line<'a> {
    no: usize,
    tokens: Vec<Token<'a>>,
}

fn tokenize(source: &str) -> Vec<Line<'_>> {
    let mut lines = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let no = idx + 1;
        let mut tokens = Vec::new();
        let mut start = None;
        for (ci, ch) in raw.chars().chain(std::iter::once(' ')).enumerate() {
            if ch == '#' {
                if let Some(s) = start {
                    tokens.push(Token {
                        line: no,
                        col: s + 1,
                        text: &raw[byte_of(raw, s)..byte_of(raw, ci)],
                    });
                }
                break;
            }
            if ch.is_whitespace() {
                if let Some(s) = start.take() {
                    tokens.push(Token {
                        line: no,
                        col: s + 1,
                        text: &raw[byte_of(raw, s)..byte_of(raw, ci)],
                    });
                }
            } else if start.is_none() {
                start = Some(ci);
            }
        }
        if !tokens.is_empty() {
            lines.push(Line { no, tokens });
        }
    }
    lines
}

/// Byte offset of the `i`-th character of `s`.
fn byte_of(s: &str, i: usize) -> usize {
    s.char_indices().nth(i).map(|(b, _)| b).unwrap_or(s.len())
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    lines: Vec<Line<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn next_line(&mut self) -> Option<&Line<'a>> {
        let line = self.lines.get(self.pos)?;
        self.pos += 1;
        Some(line)
    }

    fn last_line_no(&self) -> usize {
        self.lines.last().map_or(1, |l| l.no)
    }
}

fn parse_u64(t: &Token<'_>) -> Result<u64, ScenarioError> {
    let text = t.text;
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        text.replace('_', "").parse().ok()
    };
    parsed.ok_or_else(|| err(t.line, t.col, format!("expected an integer, got `{text}`")))
}

fn parse_u32(t: &Token<'_>) -> Result<u32, ScenarioError> {
    let v = parse_u64(t)?;
    u32::try_from(v).map_err(|_| {
        err(
            t.line,
            t.col,
            format!("`{}` does not fit in 32 bits", t.text),
        )
    })
}

fn parse_i64(t: &Token<'_>) -> Result<i64, ScenarioError> {
    t.text.parse().map_err(|_| {
        err(
            t.line,
            t.col,
            format!("expected an integer, got `{}`", t.text),
        )
    })
}

fn parse_f64(t: &Token<'_>) -> Result<f64, ScenarioError> {
    t.text.parse().map_err(|_| {
        err(
            t.line,
            t.col,
            format!("expected a number, got `{}`", t.text),
        )
    })
}

/// Parses a probability: a finite number in `[0, 1]`. NaN and
/// out-of-range values are parse errors, mirroring the typed
/// construction-time validation in the injector crates.
fn parse_probability(t: &Token<'_>) -> Result<f64, ScenarioError> {
    let v = parse_f64(t)?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(err(
            t.line,
            t.col,
            format!("`{}` is not a probability in [0, 1]", t.text),
        ))
    }
}

fn parse_on_off(t: &Token<'_>) -> Result<bool, ScenarioError> {
    match t.text {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(unknown(t.line, t.col, "flag value", other, &["on", "off"])),
    }
}

fn parse_node(t: &Token<'_>) -> Result<NodeName, ScenarioError> {
    const NAMES: [&str; 6] = [
        "cu_a", "cu_b", "wheel_fl", "wheel_fr", "wheel_rl", "wheel_rr",
    ];
    NodeName::ALL
        .into_iter()
        .find(|n| n.keyword() == t.text)
        .ok_or_else(|| unknown(t.line, t.col, "node", t.text, &NAMES))
}

/// Fixed-arity operand access: `line.tokens[i]` or a typed error.
fn operand<'b, 'a>(
    line: &'b Line<'a>,
    i: usize,
    what: &str,
) -> Result<&'b Token<'a>, ScenarioError> {
    line.tokens.get(i).ok_or_else(|| {
        let last = line.tokens.last().expect("non-empty line");
        err(
            line.no,
            last.col + last.text.chars().count(),
            format!("missing {what}"),
        )
    })
}

fn expect_len(line: &Line<'_>, len: usize) -> Result<(), ScenarioError> {
    if line.tokens.len() > len {
        let t = &line.tokens[len];
        return Err(err(
            t.line,
            t.col,
            format!("unexpected trailing `{}`", t.text),
        ));
    }
    Ok(())
}

/// Reads and parses every `*.scn` file in `dir`, sorted by file name.
///
/// # Errors
///
/// An unreadable directory or file, or a file that does not parse, with
/// its path.
pub fn load_zoo(dir: &std::path::Path) -> Result<Vec<(std::path::PathBuf, ScenarioSpec)>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let spec = parse_scenario(&source).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((path, spec))
        })
        .collect()
}

/// Parses one scenario file into its typed AST.
///
/// Grammar (line-oriented, `#` comments, sections closed by `end`):
///
/// ```text
/// scenario <name>
///   family <net_storm|value_domain|blackout|recovery|weakly_hard|multicore|node|cluster>
///   trials <n>
///   seed <n|0x..>
///   params ... end          # family parameters (non-cluster)
///   topology ... end        # cluster only
///   faults ... end          # cluster only
///   contracts ... end       # cluster only
///   accept ... end
/// end
/// ```
pub fn parse_scenario(source: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut p = Parser {
        lines: tokenize(source),
        pos: 0,
    };
    let header = p
        .next_line()
        .cloned()
        .ok_or_else(|| err(1, 1, "empty scenario source"))?;
    if header.tokens[0].text != "scenario" {
        let t = &header.tokens[0];
        return Err(unknown(t.line, t.col, "keyword", t.text, &["scenario"]));
    }
    let name = operand(&header, 1, "scenario name")?.text.to_string();
    expect_len(&header, 2)?;

    let mut trials: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut params: Option<FamilyParams> = None;
    let mut accept: Option<AcceptSpec> = None;
    let mut closed = false;

    const TOP_KEYS: [&str; 9] = [
        "family",
        "trials",
        "seed",
        "params",
        "topology",
        "faults",
        "contracts",
        "accept",
        "end",
    ];

    while let Some(line) = p.next_line().cloned() {
        let key = &line.tokens[0];
        match key.text {
            "end" => {
                expect_len(&line, 1)?;
                closed = true;
                break;
            }
            "family" => {
                let t = operand(&line, 1, "family name")?;
                let fam = FamilyParams::defaults(t.text)
                    .ok_or_else(|| unknown(t.line, t.col, "family", t.text, &FAMILIES))?;
                expect_len(&line, 2)?;
                if params.is_some() {
                    return Err(err(key.line, key.col, "family declared twice"));
                }
                params = Some(fam);
            }
            "trials" => {
                trials = Some(parse_u64(operand(&line, 1, "trial count")?)?);
                expect_len(&line, 2)?;
            }
            "seed" => {
                seed = Some(parse_u64(operand(&line, 1, "seed")?)?);
                expect_len(&line, 2)?;
            }
            "params" => {
                expect_len(&line, 1)?;
                let fam = params.as_mut().ok_or_else(|| {
                    err(key.line, key.col, "`params` before `family` declaration")
                })?;
                parse_params(&mut p, fam)?;
            }
            "topology" | "faults" | "contracts" => {
                expect_len(&line, 1)?;
                let fam = params.as_mut().ok_or_else(|| {
                    err(
                        key.line,
                        key.col,
                        format!("`{}` before `family` declaration", key.text),
                    )
                })?;
                let FamilyParams::Cluster(cluster) = fam else {
                    return Err(err(
                        key.line,
                        key.col,
                        format!(
                            "`{}` sections only apply to `family cluster` scenarios",
                            key.text
                        ),
                    ));
                };
                match key.text {
                    "topology" => parse_topology(&mut p, cluster)?,
                    "faults" => parse_faults(&mut p, cluster)?,
                    _ => parse_contracts(&mut p, cluster)?,
                }
            }
            "accept" => {
                expect_len(&line, 1)?;
                if accept.is_some() {
                    return Err(err(key.line, key.col, "accept declared twice"));
                }
                accept = Some(parse_accept(&mut p)?);
            }
            other => {
                return Err(unknown(key.line, key.col, "keyword", other, &TOP_KEYS));
            }
        }
    }
    if !closed {
        return Err(err(p.last_line_no(), 1, "missing closing `end`"));
    }
    if let Some(line) = p.next_line() {
        let t = &line.tokens[0];
        return Err(err(
            t.line,
            t.col,
            format!("trailing content `{}` after scenario", t.text),
        ));
    }
    let params = params.ok_or_else(|| err(header.tokens[0].line, 1, "missing `family`"))?;
    Ok(ScenarioSpec {
        name,
        trials: trials.ok_or_else(|| err(header.tokens[0].line, 1, "missing `trials`"))?,
        seed: seed.ok_or_else(|| err(header.tokens[0].line, 1, "missing `seed`"))?,
        params,
        accept: accept.unwrap_or_default(),
    })
}

fn parse_params(p: &mut Parser<'_>, fam: &mut FamilyParams) -> Result<(), ScenarioError> {
    if matches!(fam, FamilyParams::Cluster(_)) {
        let no = p.lines.get(p.pos.saturating_sub(1)).map_or(1, |l| l.no);
        return Err(err(
            no,
            1,
            "cluster scenarios declare `topology` / `faults` / `contracts`, not `params`",
        ));
    }
    while let Some(line) = p.next_line().cloned() {
        let key = &line.tokens[0];
        if key.text == "end" {
            expect_len(&line, 1)?;
            return Ok(());
        }
        match fam {
            FamilyParams::NetStorm {
                cycles,
                intensity,
                node_faults,
            } => match key.text {
                "cycles" => *cycles = parse_u32(operand(&line, 1, "cycle count")?)?,
                "intensity" => *intensity = parse_probability(operand(&line, 1, "intensity")?)?,
                "node_faults" => *node_faults = parse_on_off(operand(&line, 1, "on/off")?)?,
                other => {
                    return Err(unknown(
                        key.line,
                        key.col,
                        "net_storm parameter",
                        other,
                        &["cycles", "intensity", "node_faults", "end"],
                    ))
                }
            },
            FamilyParams::ValueDomain {
                cycles,
                combined,
                net_intensity,
            } => match key.text {
                "cycles" => *cycles = parse_u32(operand(&line, 1, "cycle count")?)?,
                "mode" => {
                    let t = operand(&line, 1, "mode")?;
                    *combined = match t.text {
                        "single_fault" => false,
                        "combined_storm" => true,
                        other => {
                            return Err(unknown(
                                t.line,
                                t.col,
                                "mode",
                                other,
                                &["single_fault", "combined_storm"],
                            ))
                        }
                    };
                }
                "net_intensity" => {
                    *net_intensity = parse_probability(operand(&line, 1, "intensity")?)?
                }
                other => {
                    return Err(unknown(
                        key.line,
                        key.col,
                        "value_domain parameter",
                        other,
                        &["cycles", "mode", "net_intensity", "end"],
                    ))
                }
            },
            FamilyParams::Blackout {
                warmup,
                recovery,
                down,
                stagger,
                min_reset,
                include_cus,
            } => match key.text {
                "warmup" => *warmup = parse_u32(operand(&line, 1, "cycle count")?)?,
                "recovery" => *recovery = parse_u32(operand(&line, 1, "cycle count")?)?,
                "down" => *down = parse_u32(operand(&line, 1, "cycle count")?)?,
                "stagger" => *stagger = parse_u32(operand(&line, 1, "cycle count")?)?,
                "min_reset" => *min_reset = parse_u32(operand(&line, 1, "victim count")?)?,
                "include_cus" => *include_cus = parse_on_off(operand(&line, 1, "on/off")?)?,
                other => {
                    return Err(unknown(
                        key.line,
                        key.col,
                        "blackout parameter",
                        other,
                        &[
                            "warmup",
                            "recovery",
                            "down",
                            "stagger",
                            "min_reset",
                            "include_cus",
                            "end",
                        ],
                    ))
                }
            },
            FamilyParams::Recovery { cycles } => match key.text {
                "cycles" => *cycles = parse_u32(operand(&line, 1, "cycle count")?)?,
                other => {
                    return Err(unknown(
                        key.line,
                        key.col,
                        "recovery parameter",
                        other,
                        &["cycles", "end"],
                    ))
                }
            },
            FamilyParams::WeaklyHard {
                horizon_jobs,
                max_misses,
                window,
                interval_lo,
                interval_hi,
                zero_force,
            } => match key.text {
                "horizon_jobs" => *horizon_jobs = parse_u32(operand(&line, 1, "job count")?)?,
                "contract" => {
                    *max_misses = parse_u32(operand(&line, 1, "m")?)?;
                    *window = parse_u32(operand(&line, 2, "k")?)?;
                    expect_len(&line, 3)?;
                }
                "interval" => {
                    *interval_lo = parse_u64(operand(&line, 1, "lower bound")?)?;
                    *interval_hi = parse_u64(operand(&line, 2, "upper bound")?)?;
                    expect_len(&line, 3)?;
                }
                "policy" => {
                    let t = operand(&line, 1, "policy")?;
                    *zero_force = match t.text {
                        "hold_last" => false,
                        "zero_force" => true,
                        other => {
                            return Err(unknown(
                                t.line,
                                t.col,
                                "miss policy",
                                other,
                                &["hold_last", "zero_force"],
                            ))
                        }
                    };
                }
                other => {
                    return Err(unknown(
                        key.line,
                        key.col,
                        "weakly_hard parameter",
                        other,
                        &["horizon_jobs", "contract", "interval", "policy", "end"],
                    ))
                }
            },
            FamilyParams::Multicore {
                cores,
                horizon,
                escalated_p,
            } => match key.text {
                "cores" => *cores = parse_u32(operand(&line, 1, "core count")?)?,
                "horizon" => *horizon = parse_u64(operand(&line, 1, "tick count")?)?,
                "escalated_p" => {
                    *escalated_p = parse_probability(operand(&line, 1, "probability")?)?
                }
                other => {
                    return Err(unknown(
                        key.line,
                        key.col,
                        "multicore parameter",
                        other,
                        &["cores", "horizon", "escalated_p", "end"],
                    ))
                }
            },
            FamilyParams::Node { lightweight_nlft } => match key.text {
                "policy" => {
                    let t = operand(&line, 1, "policy")?;
                    *lightweight_nlft = match t.text {
                        "fail_silent" => false,
                        "lightweight_nlft" => true,
                        other => {
                            return Err(unknown(
                                t.line,
                                t.col,
                                "node policy",
                                other,
                                &["fail_silent", "lightweight_nlft"],
                            ))
                        }
                    };
                }
                other => {
                    return Err(unknown(
                        key.line,
                        key.col,
                        "node parameter",
                        other,
                        &["policy", "end"],
                    ))
                }
            },
            FamilyParams::Cluster(_) => unreachable!("rejected above"),
        }
        // Single-operand keys were length-checked by the match arms that
        // consume more; check the common 2-token shape here.
        if !matches!(key.text, "contract" | "interval") {
            expect_len(&line, 2)?;
        }
    }
    Err(err(p.last_line_no(), 1, "unterminated `params` section"))
}

fn parse_topology(p: &mut Parser<'_>, cluster: &mut ClusterSpec) -> Result<(), ScenarioError> {
    while let Some(line) = p.next_line().cloned() {
        let key = &line.tokens[0];
        match key.text {
            "end" => {
                expect_len(&line, 1)?;
                return Ok(());
            }
            "cycles" => {
                cluster.cycles = parse_u32(operand(&line, 1, "cycle count")?)?;
                expect_len(&line, 2)?;
            }
            "pedal" => {
                let t = operand(&line, 1, "pedal profile")?;
                cluster.pedal = match t.text {
                    "constant" => {
                        let v = parse_u32(operand(&line, 2, "force")?)?;
                        expect_len(&line, 3)?;
                        PedalSpec::Constant(v)
                    }
                    "ramp" => {
                        let base = parse_u32(operand(&line, 2, "base")?)?;
                        let slope = parse_u32(operand(&line, 3, "slope")?)?;
                        let max = parse_u32(operand(&line, 4, "max")?)?;
                        expect_len(&line, 5)?;
                        PedalSpec::Ramp { base, slope, max }
                    }
                    other => {
                        return Err(unknown(
                            t.line,
                            t.col,
                            "pedal profile",
                            other,
                            &["constant", "ramp"],
                        ))
                    }
                };
            }
            "node" => {
                let node = parse_node(operand(&line, 1, "node name")?)?;
                let t = operand(&line, 2, "node kind")?;
                let kind = [
                    NodeKind::SingleCore,
                    NodeKind::DualCoreLock,
                    NodeKind::DualCoreLeftRs,
                ]
                .into_iter()
                .find(|k| k.keyword() == t.text)
                .ok_or_else(|| {
                    unknown(
                        t.line,
                        t.col,
                        "node kind",
                        t.text,
                        &["single_core", "dual_core_lock", "dual_core_left_rs"],
                    )
                })?;
                expect_len(&line, 3)?;
                cluster.nodes.push((node, kind));
            }
            "startup" => {
                cluster.startup = parse_on_off(operand(&line, 1, "on/off")?)?;
                expect_len(&line, 2)?;
            }
            "supervise" => {
                cluster.supervise = parse_on_off(operand(&line, 1, "on/off")?)?;
                expect_len(&line, 2)?;
            }
            other => {
                return Err(unknown(
                    key.line,
                    key.col,
                    "topology keyword",
                    other,
                    &["cycles", "pedal", "node", "startup", "supervise", "end"],
                ))
            }
        }
    }
    Err(err(p.last_line_no(), 1, "unterminated `topology` section"))
}

fn parse_faults(p: &mut Parser<'_>, cluster: &mut ClusterSpec) -> Result<(), ScenarioError> {
    const KEYS: [&str; 12] = [
        "storm",
        "rates",
        "dynamic",
        "blackout",
        "transient",
        "stuck_at",
        "intermittent",
        "core_death",
        "sensor",
        "actuator",
        "silence",
        "end",
    ];
    while let Some(line) = p.next_line().cloned() {
        let key = &line.tokens[0];
        let fault = match key.text {
            "end" => {
                expect_len(&line, 1)?;
                return Ok(());
            }
            "storm" => {
                let intensity = parse_probability(operand(&line, 1, "intensity")?)?;
                let mut from = 0u32;
                let mut until = u32::MAX;
                let mut i = 2;
                while i < line.tokens.len() {
                    let t = &line.tokens[i];
                    match t.text {
                        "from" => {
                            from = parse_u32(operand(&line, i + 1, "cycle")?)?;
                            i += 2;
                        }
                        "until" => {
                            until = parse_u32(operand(&line, i + 1, "cycle")?)?;
                            i += 2;
                        }
                        other => {
                            return Err(unknown(
                                t.line,
                                t.col,
                                "storm option",
                                other,
                                &["from", "until"],
                            ))
                        }
                    }
                }
                FaultLine::Storm {
                    intensity,
                    from,
                    until,
                }
            }
            "rates" => {
                let node = parse_node(operand(&line, 1, "node name")?)?;
                let mut rates = [0.0f64; 6];
                const FIELDS: [&str; 6] = [
                    "corruption",
                    "omission",
                    "crash",
                    "babble",
                    "masquerade",
                    "clock_glitch",
                ];
                let mut i = 2;
                while i < line.tokens.len() {
                    let t = &line.tokens[i];
                    let Some(slot) = FIELDS.iter().position(|f| *f == t.text) else {
                        return Err(unknown(t.line, t.col, "rate field", t.text, &FIELDS));
                    };
                    rates[slot] = parse_probability(operand(&line, i + 1, "rate")?)?;
                    i += 2;
                }
                FaultLine::Rates {
                    node,
                    corruption: rates[0],
                    omission: rates[1],
                    crash: rates[2],
                    babble: rates[3],
                    masquerade: rates[4],
                    clock_glitch: rates[5],
                }
            }
            "dynamic" => {
                let dup = parse_probability(operand(&line, 1, "dup rate")?)?;
                let reorder = parse_probability(operand(&line, 2, "reorder rate")?)?;
                expect_len(&line, 3)?;
                FaultLine::Dynamic { dup, reorder }
            }
            "blackout" => {
                let at = parse_u32(operand(&line, 1, "cycle")?)?;
                let down = parse_u32(operand(&line, 2, "down cycles")?)?;
                let stagger = parse_u32(operand(&line, 3, "stagger")?)?;
                let mut nodes = Vec::new();
                for t in &line.tokens[4..] {
                    nodes.push(parse_node(t)?);
                }
                if nodes.is_empty() {
                    return Err(err(key.line, key.col, "blackout without victim nodes"));
                }
                FaultLine::Blackout {
                    at,
                    down,
                    stagger,
                    nodes,
                }
            }
            "transient" => {
                let node = parse_node(operand(&line, 1, "node name")?)?;
                let cycle = parse_u32(operand(&line, 2, "cycle")?)?;
                let copy = parse_u32(operand(&line, 3, "copy index")?)?;
                let at = parse_u64(operand(&line, 4, "machine cycle")?)?;
                expect_len(&line, 5)?;
                FaultLine::Transient {
                    node,
                    cycle,
                    copy,
                    at,
                }
            }
            "stuck_at" => {
                let node = parse_node(operand(&line, 1, "node name")?)?;
                let bit = parse_u32(operand(&line, 2, "bit index")?)?;
                if bit >= 32 {
                    let t = &line.tokens[2];
                    return Err(err(t.line, t.col, format!("bit index {bit} outside 0–31")));
                }
                expect_len(&line, 3)?;
                FaultLine::StuckAtPc { node, bit }
            }
            "intermittent" => {
                let node = parse_node(operand(&line, 1, "node name")?)?;
                let recurrence = parse_probability(operand(&line, 2, "recurrence")?)?;
                let burst = parse_u32(operand(&line, 3, "burst length")?)?;
                expect_len(&line, 4)?;
                FaultLine::Intermittent {
                    node,
                    recurrence,
                    burst,
                }
            }
            "core_death" => {
                let node = parse_node(operand(&line, 1, "node name")?)?;
                let cycle = parse_u32(operand(&line, 2, "cycle")?)?;
                let escalated = if let Some(t) = line.tokens.get(3) {
                    if t.text != "escalated" {
                        return Err(unknown(
                            t.line,
                            t.col,
                            "core_death option",
                            t.text,
                            &["escalated"],
                        ));
                    }
                    expect_len(&line, 4)?;
                    true
                } else {
                    false
                };
                FaultLine::CoreDeath {
                    node,
                    cycle,
                    escalated,
                }
            }
            "sensor" => {
                let channel = parse_u32(operand(&line, 1, "channel index")?)?;
                let t = operand(&line, 2, "sensor fault kind")?;
                let (fault, onset_idx) = match t.text {
                    "stuck_at" => (
                        SensorFaultSpec::StuckAt(parse_u32(operand(&line, 3, "value")?)?),
                        4,
                    ),
                    "offset" => (
                        SensorFaultSpec::Offset(parse_i64(operand(&line, 3, "offset")?)?),
                        4,
                    ),
                    "drift" => (
                        SensorFaultSpec::Drift(parse_i64(operand(&line, 3, "per-cycle drift")?)?),
                        4,
                    ),
                    "noise" => (
                        SensorFaultSpec::Noise {
                            amplitude: parse_u32(operand(&line, 3, "amplitude")?)?,
                            cycles: parse_u32(operand(&line, 4, "burst cycles")?)?,
                        },
                        5,
                    ),
                    other => {
                        return Err(unknown(
                            t.line,
                            t.col,
                            "sensor fault",
                            other,
                            &["stuck_at", "offset", "drift", "noise"],
                        ))
                    }
                };
                let kw = operand(&line, onset_idx, "`onset`")?;
                if kw.text != "onset" {
                    return Err(unknown(kw.line, kw.col, "keyword", kw.text, &["onset"]));
                }
                let onset = parse_u32(operand(&line, onset_idx + 1, "onset cycle")?)?;
                expect_len(&line, onset_idx + 2)?;
                FaultLine::Sensor {
                    channel,
                    fault,
                    onset,
                }
            }
            "actuator" => {
                let wheel = parse_u32(operand(&line, 1, "wheel index")?)?;
                let t = operand(&line, 2, "actuator fault kind")?;
                let (fault, onset_idx) = match t.text {
                    "stuck" => (ActuatorFaultSpec::Stuck, 3),
                    "runaway" => (
                        ActuatorFaultSpec::Runaway {
                            step: parse_u32(operand(&line, 3, "step")?)?,
                        },
                        4,
                    ),
                    "offset" => (
                        ActuatorFaultSpec::Offset(parse_i64(operand(&line, 3, "offset")?)?),
                        4,
                    ),
                    other => {
                        return Err(unknown(
                            t.line,
                            t.col,
                            "actuator fault",
                            other,
                            &["stuck", "runaway", "offset"],
                        ))
                    }
                };
                let kw = operand(&line, onset_idx, "`onset`")?;
                if kw.text != "onset" {
                    return Err(unknown(kw.line, kw.col, "keyword", kw.text, &["onset"]));
                }
                let onset = parse_u32(operand(&line, onset_idx + 1, "onset cycle")?)?;
                expect_len(&line, onset_idx + 2)?;
                FaultLine::Actuator {
                    wheel,
                    fault,
                    onset,
                }
            }
            "silence" => {
                let node = parse_node(operand(&line, 1, "node name")?)?;
                let cycles = parse_u32(operand(&line, 2, "cycle count")?)?;
                expect_len(&line, 3)?;
                FaultLine::Silence { node, cycles }
            }
            other => return Err(unknown(key.line, key.col, "fault keyword", other, &KEYS)),
        };
        cluster.faults.push(fault);
    }
    Err(err(p.last_line_no(), 1, "unterminated `faults` section"))
}

fn parse_contracts(p: &mut Parser<'_>, cluster: &mut ClusterSpec) -> Result<(), ScenarioError> {
    const WHEEL_KEYS: [&str; 4] = ["fl", "fr", "rl", "rr"];
    let mut contracts = cluster
        .contracts
        .unwrap_or([(1, 8), (1, 8), (2, 8), (2, 8)]);
    while let Some(line) = p.next_line().cloned() {
        let key = &line.tokens[0];
        match key.text {
            "end" => {
                expect_len(&line, 1)?;
                cluster.contracts = Some(contracts);
                return Ok(());
            }
            "wheel" => {
                let t = operand(&line, 1, "wheel name")?;
                let idx = WHEEL_KEYS
                    .iter()
                    .position(|w| *w == t.text)
                    .ok_or_else(|| unknown(t.line, t.col, "wheel", t.text, &WHEEL_KEYS))?;
                let m = parse_u32(operand(&line, 2, "m")?)?;
                let k = parse_u32(operand(&line, 3, "k")?)?;
                if k == 0 || m >= k {
                    let t = &line.tokens[2];
                    return Err(err(
                        t.line,
                        t.col,
                        format!("({m},{k}) is not a valid weakly-hard contract"),
                    ));
                }
                expect_len(&line, 4)?;
                contracts[idx] = (m, k);
            }
            other => {
                return Err(unknown(
                    key.line,
                    key.col,
                    "contracts keyword",
                    other,
                    &["wheel", "end"],
                ))
            }
        }
    }
    Err(err(p.last_line_no(), 1, "unterminated `contracts` section"))
}

fn parse_accept(p: &mut Parser<'_>) -> Result<AcceptSpec, ScenarioError> {
    let mut accept = AcceptSpec::default();
    while let Some(line) = p.next_line().cloned() {
        let key = &line.tokens[0];
        match key.text {
            "end" => {
                expect_len(&line, 1)?;
                return Ok(accept);
            }
            "pin" => {
                let t = operand(&line, 1, "digest")?;
                let v = parse_u64(t)?;
                let v = u32::try_from(v)
                    .map_err(|_| err(t.line, t.col, "digest does not fit in 32 bits"))?;
                expect_len(&line, 2)?;
                accept.pin = Some(v);
            }
            "verdict" => {
                let name = operand(&line, 1, "verdict name")?.text.to_string();
                let count = parse_u64(operand(&line, 2, "count")?)?;
                expect_len(&line, 3)?;
                accept.verdicts.push((name, count));
            }
            "require_zero" => {
                let name = operand(&line, 1, "verdict or metric name")?
                    .text
                    .to_string();
                expect_len(&line, 2)?;
                accept.require_zero.push(name);
            }
            "max" => {
                let name = operand(&line, 1, "metric name")?.text.to_string();
                let v = parse_u64(operand(&line, 2, "ceiling")?)?;
                expect_len(&line, 3)?;
                accept.max.push((name, v));
            }
            other => {
                return Err(unknown(
                    key.line,
                    key.col,
                    "accept keyword",
                    other,
                    &["pin", "verdict", "require_zero", "max", "end"],
                ))
            }
        }
    }
    Err(err(p.last_line_no(), 1, "unterminated `accept` section"))
}

// ---------------------------------------------------------------------
// Formatter
// ---------------------------------------------------------------------

/// Renders the canonical form of a scenario. `format → parse` yields an
/// AST equal to the input — the round-trip property the zoo test pins.
pub fn format_scenario(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", spec.name);
    let _ = writeln!(out, "  family {}", spec.params.family());
    let _ = writeln!(out, "  trials {}", spec.trials);
    let _ = writeln!(out, "  seed 0x{:x}", spec.seed);
    match &spec.params {
        FamilyParams::NetStorm {
            cycles,
            intensity,
            node_faults,
        } => {
            let _ = writeln!(out, "  params");
            let _ = writeln!(out, "    cycles {cycles}");
            let _ = writeln!(out, "    intensity {intensity}");
            let _ = writeln!(out, "    node_faults {}", on_off(*node_faults));
            let _ = writeln!(out, "  end");
        }
        FamilyParams::ValueDomain {
            cycles,
            combined,
            net_intensity,
        } => {
            let _ = writeln!(out, "  params");
            let _ = writeln!(out, "    cycles {cycles}");
            let _ = writeln!(
                out,
                "    mode {}",
                if *combined {
                    "combined_storm"
                } else {
                    "single_fault"
                }
            );
            let _ = writeln!(out, "    net_intensity {net_intensity}");
            let _ = writeln!(out, "  end");
        }
        FamilyParams::Blackout {
            warmup,
            recovery,
            down,
            stagger,
            min_reset,
            include_cus,
        } => {
            let _ = writeln!(out, "  params");
            let _ = writeln!(out, "    warmup {warmup}");
            let _ = writeln!(out, "    recovery {recovery}");
            let _ = writeln!(out, "    down {down}");
            let _ = writeln!(out, "    stagger {stagger}");
            let _ = writeln!(out, "    min_reset {min_reset}");
            let _ = writeln!(out, "    include_cus {}", on_off(*include_cus));
            let _ = writeln!(out, "  end");
        }
        FamilyParams::Recovery { cycles } => {
            let _ = writeln!(out, "  params");
            let _ = writeln!(out, "    cycles {cycles}");
            let _ = writeln!(out, "  end");
        }
        FamilyParams::WeaklyHard {
            horizon_jobs,
            max_misses,
            window,
            interval_lo,
            interval_hi,
            zero_force,
        } => {
            let _ = writeln!(out, "  params");
            let _ = writeln!(out, "    horizon_jobs {horizon_jobs}");
            let _ = writeln!(out, "    contract {max_misses} {window}");
            let _ = writeln!(out, "    interval {interval_lo} {interval_hi}");
            let _ = writeln!(
                out,
                "    policy {}",
                if *zero_force {
                    "zero_force"
                } else {
                    "hold_last"
                }
            );
            let _ = writeln!(out, "  end");
        }
        FamilyParams::Multicore {
            cores,
            horizon,
            escalated_p,
        } => {
            let _ = writeln!(out, "  params");
            let _ = writeln!(out, "    cores {cores}");
            let _ = writeln!(out, "    horizon {horizon}");
            let _ = writeln!(out, "    escalated_p {escalated_p}");
            let _ = writeln!(out, "  end");
        }
        FamilyParams::Node { lightweight_nlft } => {
            let _ = writeln!(out, "  params");
            let _ = writeln!(
                out,
                "    policy {}",
                if *lightweight_nlft {
                    "lightweight_nlft"
                } else {
                    "fail_silent"
                }
            );
            let _ = writeln!(out, "  end");
        }
        FamilyParams::Cluster(cluster) => format_cluster(&mut out, cluster),
    }
    format_accept(&mut out, &spec.accept);
    let _ = writeln!(out, "end");
    out
}

fn on_off(v: bool) -> &'static str {
    if v {
        "on"
    } else {
        "off"
    }
}

fn format_cluster(out: &mut String, cluster: &ClusterSpec) {
    let _ = writeln!(out, "  topology");
    let _ = writeln!(out, "    cycles {}", cluster.cycles);
    match cluster.pedal {
        PedalSpec::Constant(v) => {
            let _ = writeln!(out, "    pedal constant {v}");
        }
        PedalSpec::Ramp { base, slope, max } => {
            let _ = writeln!(out, "    pedal ramp {base} {slope} {max}");
        }
    }
    for &(node, kind) in &cluster.nodes {
        let _ = writeln!(out, "    node {} {}", node.keyword(), kind.keyword());
    }
    let _ = writeln!(out, "    startup {}", on_off(cluster.startup));
    let _ = writeln!(out, "    supervise {}", on_off(cluster.supervise));
    let _ = writeln!(out, "  end");
    if !cluster.faults.is_empty() {
        let _ = writeln!(out, "  faults");
        for fault in &cluster.faults {
            format_fault(out, fault);
        }
        let _ = writeln!(out, "  end");
    }
    if let Some(contracts) = cluster.contracts {
        let _ = writeln!(out, "  contracts");
        for (idx, name) in ["fl", "fr", "rl", "rr"].iter().enumerate() {
            let (m, k) = contracts[idx];
            let _ = writeln!(out, "    wheel {name} {m} {k}");
        }
        let _ = writeln!(out, "  end");
    }
}

fn format_fault(out: &mut String, fault: &FaultLine) {
    match fault {
        FaultLine::Storm {
            intensity,
            from,
            until,
        } => {
            let _ = write!(out, "    storm {intensity}");
            if *from != 0 {
                let _ = write!(out, " from {from}");
            }
            if *until != u32::MAX {
                let _ = write!(out, " until {until}");
            }
            let _ = writeln!(out);
        }
        FaultLine::Rates {
            node,
            corruption,
            omission,
            crash,
            babble,
            masquerade,
            clock_glitch,
        } => {
            let _ = write!(out, "    rates {}", node.keyword());
            for (name, v) in [
                ("corruption", corruption),
                ("omission", omission),
                ("crash", crash),
                ("babble", babble),
                ("masquerade", masquerade),
                ("clock_glitch", clock_glitch),
            ] {
                if *v != 0.0 {
                    let _ = write!(out, " {name} {v}");
                }
            }
            let _ = writeln!(out);
        }
        FaultLine::Dynamic { dup, reorder } => {
            let _ = writeln!(out, "    dynamic {dup} {reorder}");
        }
        FaultLine::Blackout {
            at,
            down,
            stagger,
            nodes,
        } => {
            let _ = write!(out, "    blackout {at} {down} {stagger}");
            for n in nodes {
                let _ = write!(out, " {}", n.keyword());
            }
            let _ = writeln!(out);
        }
        FaultLine::Transient {
            node,
            cycle,
            copy,
            at,
        } => {
            let _ = writeln!(out, "    transient {} {cycle} {copy} {at}", node.keyword());
        }
        FaultLine::StuckAtPc { node, bit } => {
            let _ = writeln!(out, "    stuck_at {} {bit}", node.keyword());
        }
        FaultLine::Intermittent {
            node,
            recurrence,
            burst,
        } => {
            let _ = writeln!(
                out,
                "    intermittent {} {recurrence} {burst}",
                node.keyword()
            );
        }
        FaultLine::CoreDeath {
            node,
            cycle,
            escalated,
        } => {
            let _ = write!(out, "    core_death {} {cycle}", node.keyword());
            if *escalated {
                let _ = write!(out, " escalated");
            }
            let _ = writeln!(out);
        }
        FaultLine::Sensor {
            channel,
            fault,
            onset,
        } => {
            let _ = write!(out, "    sensor {channel}");
            match fault {
                SensorFaultSpec::StuckAt(v) => {
                    let _ = write!(out, " stuck_at {v}");
                }
                SensorFaultSpec::Offset(v) => {
                    let _ = write!(out, " offset {v}");
                }
                SensorFaultSpec::Drift(v) => {
                    let _ = write!(out, " drift {v}");
                }
                SensorFaultSpec::Noise { amplitude, cycles } => {
                    let _ = write!(out, " noise {amplitude} {cycles}");
                }
            }
            let _ = writeln!(out, " onset {onset}");
        }
        FaultLine::Actuator {
            wheel,
            fault,
            onset,
        } => {
            let _ = write!(out, "    actuator {wheel}");
            match fault {
                ActuatorFaultSpec::Stuck => {
                    let _ = write!(out, " stuck");
                }
                ActuatorFaultSpec::Runaway { step } => {
                    let _ = write!(out, " runaway {step}");
                }
                ActuatorFaultSpec::Offset(v) => {
                    let _ = write!(out, " offset {v}");
                }
            }
            let _ = writeln!(out, " onset {onset}");
        }
        FaultLine::Silence { node, cycles } => {
            let _ = writeln!(out, "    silence {} {cycles}", node.keyword());
        }
    }
}

fn format_accept(out: &mut String, accept: &AcceptSpec) {
    let empty = accept.pin.is_none()
        && accept.verdicts.is_empty()
        && accept.require_zero.is_empty()
        && accept.max.is_empty();
    if empty {
        return;
    }
    let _ = writeln!(out, "  accept");
    for (name, count) in &accept.verdicts {
        let _ = writeln!(out, "    verdict {name} {count}");
    }
    for name in &accept.require_zero {
        let _ = writeln!(out, "    require_zero {name}");
    }
    for (name, v) in &accept.max {
        let _ = writeln!(out, "    max {name} {v}");
    }
    if let Some(pin) = accept.pin {
        let _ = writeln!(out, "    pin 0x{pin:08x}");
    }
    let _ = writeln!(out, "  end");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "\
# a comment
scenario smoke
  family net_storm
  trials 10
  seed 0x5708
  params
    cycles 20
    intensity 0.3
    node_faults on
  end
  accept
    verdict service_lost 1
    require_zero split_membership
    max guardian_blocks 100
    pin 0xdeadbeef
  end
end
";

    #[test]
    fn parses_net_storm_scenario() {
        let spec = parse_scenario(SMOKE).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.trials, 10);
        assert_eq!(spec.seed, 0x5708);
        assert_eq!(
            spec.params,
            FamilyParams::NetStorm {
                cycles: 20,
                intensity: 0.3,
                node_faults: true,
            }
        );
        assert_eq!(spec.accept.pin, Some(0xdead_beef));
        assert_eq!(spec.accept.verdicts, vec![("service_lost".into(), 1)]);
        assert_eq!(
            spec.accept.require_zero,
            vec!["split_membership".to_string()]
        );
        assert_eq!(spec.accept.max, vec![("guardian_blocks".into(), 100)]);
    }

    #[test]
    fn defaults_mirror_campaign_constructors() {
        let spec = parse_scenario("scenario d\nfamily multicore\ntrials 4\nseed 1\nend\n").unwrap();
        assert_eq!(
            spec.params,
            FamilyParams::Multicore {
                cores: 2,
                horizon: 4_000,
                escalated_p: 0.25,
            }
        );
    }

    #[test]
    fn unknown_keyword_gets_line_col_and_hint() {
        let e = parse_scenario(
            "scenario x\nfamily net_storm\ntrials 1\nseed 1\nparams\n  cycels 20\nend\nend\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.col, 3);
        assert!(e.message.contains("did you mean `cycles`?"), "{e}");
    }

    #[test]
    fn unknown_family_gets_hint() {
        let e =
            parse_scenario("scenario x\nfamily net_strom\ntrials 1\nseed 1\nend\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 8);
        assert!(e.message.contains("did you mean `net_storm`?"), "{e}");
    }

    #[test]
    fn out_of_range_probability_rejected_at_parse_time() {
        let e = parse_scenario(
            "scenario x\nfamily net_storm\ntrials 1\nseed 1\nparams\nintensity 1.5\nend\nend\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.message.contains("not a probability"), "{e}");
        let e = parse_scenario(
            "scenario x\nfamily net_storm\ntrials 1\nseed 1\nparams\nintensity NaN\nend\nend\n",
        )
        .unwrap_err();
        assert!(e.message.contains("not a probability"), "{e}");
    }

    #[test]
    fn cluster_sections_rejected_for_campaign_families() {
        let e =
            parse_scenario("scenario x\nfamily recovery\ntrials 1\nseed 1\ntopology\nend\nend\n")
                .unwrap_err();
        assert!(e.message.contains("family cluster"), "{e}");
    }

    #[test]
    fn cluster_round_trips_through_formatter() {
        let source = "\
scenario kitchen-sink
  family cluster
  trials 6
  seed 0xabc
  topology
    cycles 32
    pedal ramp 400 60 3500
    node wheel_fl dual_core_left_rs
    node wheel_fr dual_core_lock
    startup on
    supervise on
  end
  faults
    storm 0.45 from 5 until 14
    rates cu_a masquerade 0.2 babble 0.1
    dynamic 0.05 0.1
    blackout 8 3 1 wheel_fl wheel_fr
    transient wheel_rl 4 1 20
    stuck_at wheel_rr 20
    intermittent wheel_rl 0.9 12
    core_death wheel_fl 10 escalated
    sensor 0 drift 3 onset 5
    sensor 1 noise 300 6 onset 4
    actuator 2 runaway 60 onset 6
    silence cu_b 4
  end
  contracts
    wheel fl 1 8
    wheel rr 3 8
  end
  accept
    require_zero undetected
    pin 0x00000001
  end
end
";
        let spec = parse_scenario(source).unwrap();
        let formatted = format_scenario(&spec);
        let reparsed = parse_scenario(&formatted).unwrap();
        assert_eq!(spec, reparsed, "format → parse must round-trip the AST");
        let FamilyParams::Cluster(cluster) = &spec.params else {
            panic!("expected cluster");
        };
        assert_eq!(cluster.faults.len(), 12);
        assert_eq!(
            cluster.contracts,
            Some([(1, 8), (1, 8), (2, 8), (3, 8)]),
            "unlisted wheels keep the default contracts"
        );
    }

    #[test]
    fn every_family_round_trips() {
        for family in FAMILIES {
            let source = format!("scenario f\nfamily {family}\ntrials 3\nseed 0x9\nend\n");
            let spec = parse_scenario(&source).unwrap();
            let reparsed = parse_scenario(&format_scenario(&spec)).unwrap();
            assert_eq!(spec, reparsed, "{family}");
        }
    }

    #[test]
    fn missing_end_reported() {
        let e = parse_scenario("scenario x\nfamily recovery\ntrials 1\nseed 1\n").unwrap_err();
        assert!(e.message.contains("missing closing `end`"), "{e}");
    }

    #[test]
    fn trailing_content_rejected() {
        let e = parse_scenario("scenario x\nfamily recovery\ntrials 1\nseed 1\nend\nscenario y\n")
            .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.message.contains("trailing content"), "{e}");
    }

    #[test]
    fn vacuous_contract_rejected() {
        let e = parse_scenario(
            "scenario x\nfamily cluster\ntrials 1\nseed 1\ncontracts\nwheel fl 8 8\nend\nend\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(
            e.message.contains("not a valid weakly-hard contract"),
            "{e}"
        );
    }

    #[test]
    fn display_formats_line_and_col() {
        let e = err(4, 7, "boom");
        assert_eq!(e.to_string(), "line 4, col 7: boom");
    }
}
