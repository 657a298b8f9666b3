//! Checkpoint/restore: a versioned, checksummed snapshot format for the
//! whole simulation state.
//!
//! The format is JSON — self-describing and diffable like the telemetry
//! traces — wrapped in an envelope:
//!
//! ```json
//! {"schema_version":1,"kind":"tracker","checksum":"<fnv1a64 hex>","payload":{...}}
//! ```
//!
//! The checksum is FNV-1a-64 over the exact payload bytes, so any bit flip
//! in transit is caught before a corrupted state is trusted. Every `f64` is
//! serialized as the decimal value of its IEEE-754 bit pattern (`to_bits`):
//! exact round-trips with no decimal-formatting ambiguity, NaN/inf-safe,
//! and a restored run therefore continues **bit-identically** — interaction
//! lists are captured verbatim because their iteration order drives the
//! float-summation order of every downstream reduction.
//!
//! Like the `telemetry` crate, this module is dependency-free: it carries
//! its own writer and a minimal recursive-descent JSON parser.

use crate::balance::{BalancerSnapshot, LbConfig, LbState, Strategy};
use crate::config::FmmParams;
use crate::cost::CostModel;
use crate::error::Error;
use crate::filter::FilterSnapshot;
use crate::simulate::StepRecord;
use geom::Vec3;
use gpu_sim::{DeviceStatus, FaultEvent, FaultSchedule, TimedFault};
use octree::{ListsSnapshot, Mac, Node, OpCounts, TreeSnapshot, NONE};
use std::fmt::Write as _;

/// Version of the on-disk schema. Bump on any incompatible layout change;
/// restore refuses snapshots from a different version.
pub const SCHEMA_VERSION: u32 = 1;

/// Plain-data image of an [`FmmEngine`](crate::FmmEngine): numerical
/// parameters, the octree, and the live execution plan (verbatim lists).
/// Scratch buffers are excluded — every solve overwrites them in full.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    pub params: FmmParams,
    pub domain: Option<(Vec3, f64)>,
    pub tree: TreeSnapshot,
    pub plan: Option<ListsSnapshot>,
    pub plan_stale: bool,
    /// Bodies were re-binned after the plan last reconciled its counts;
    /// restore reconciles before auditing.
    pub counts_pending: bool,
}

/// Plain-data image of a [`StrategyTracker`](crate::StrategyTracker): the
/// engine, the trained cost model, the balancer state machine, the timing
/// filters, the fault script with the device status it has produced so far,
/// the measurement-noise RNG state, the step history — and the body
/// positions, so a restore can proceed even when the live position buffer
/// was the thing that got corrupted.
#[derive(Clone, Debug)]
pub struct TrackerSnapshot {
    pub engine: EngineSnapshot,
    pub model: CostModel,
    pub balancer: BalancerSnapshot,
    pub records: Vec<StepRecord>,
    pub first: bool,
    pub faults: FaultSchedule,
    /// Per-device status at checkpoint time (`None` on CPU-only nodes).
    pub gpu_status: Option<Vec<DeviceStatus>>,
    pub cpu_load: f64,
    pub noise_sigma: f64,
    pub noise_state: u64,
    pub filter_cpu: FilterSnapshot,
    pub filter_gpu: FilterSnapshot,
    pub pos: Vec<Vec3>,
}

// ---- checksum ----

/// FNV-1a 64-bit over the payload bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- writer ----

fn w_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{}", v.to_bits());
}

fn w_vec3(out: &mut String, v: Vec3) {
    out.push('[');
    w_f64(out, v.x);
    out.push(',');
    w_f64(out, v.y);
    out.push(',');
    w_f64(out, v.z);
    out.push(']');
}

fn w_u64_slice<T: Copy + Into<u64>>(out: &mut String, xs: &[T]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", x.into());
    }
    out.push(']');
}

fn w_lists(out: &mut String, lists: &[Vec<u32>]) {
    out.push('[');
    for (i, l) in lists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_u64_slice(out, l);
    }
    out.push(']');
}

fn w_counts(out: &mut String, c: &OpCounts) {
    let _ = write!(
        out,
        "[{},{},{},{},{},{},{}]",
        c.p2m_bodies,
        c.m2m_ops,
        c.m2l_ops,
        c.l2l_ops,
        c.l2p_bodies,
        c.p2p_interactions,
        c.active_nodes
    );
}

fn w_tree(out: &mut String, t: &TreeSnapshot) {
    out.push_str("{\"nodes\":[");
    for (i, n) in t.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        w_f64(out, n.center.x);
        out.push(',');
        w_f64(out, n.center.y);
        out.push(',');
        w_f64(out, n.center.z);
        out.push(',');
        w_f64(out, n.half_width);
        let _ = write!(
            out,
            ",{},{},{},{},{},{}]",
            n.level, n.parent, n.first_child, n.begin, n.end, n.collapsed as u8
        );
    }
    out.push_str("],\"order\":");
    w_u64_slice(out, &t.order);
    out.push_str(",\"codes\":");
    w_u64_slice(out, &t.codes);
    let _ = write!(out, ",\"s_value\":{},\"root_center\":", t.s_value);
    w_vec3(out, t.root_center);
    out.push_str(",\"root_half_width\":");
    w_f64(out, t.root_half_width);
    let _ = write!(out, ",\"max_level\":{}}}", t.max_level);
}

fn w_plan(out: &mut String, p: &ListsSnapshot) {
    out.push_str("{\"theta\":");
    w_f64(out, p.theta);
    out.push_str(",\"m2l\":");
    w_lists(out, &p.m2l);
    out.push_str(",\"p2p\":");
    w_lists(out, &p.p2p);
    out.push_str(",\"rev_m2l\":");
    w_lists(out, &p.rev_m2l);
    out.push_str(",\"rev_p2p\":");
    w_lists(out, &p.rev_p2p);
    out.push_str(",\"node_counts\":[");
    for (i, c) in p.node_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_counts(out, c);
    }
    out.push_str("],\"totals\":");
    w_counts(out, &p.totals);
    out.push_str(",\"body_count\":");
    w_u64_slice(out, &p.body_count);
    out.push_str(",\"stamp\":");
    w_u64_slice(out, &p.stamp);
    let _ = write!(out, ",\"epoch\":{}}}", p.epoch);
}

fn w_engine(out: &mut String, e: &EngineSnapshot) {
    let _ = write!(out, "{{\"order\":{},\"theta\":", e.params.order);
    w_f64(out, e.params.mac.theta);
    let _ = write!(out, ",\"max_level\":{},\"domain\":", e.params.max_level);
    match e.domain {
        Some((c, hw)) => {
            out.push('[');
            w_f64(out, c.x);
            out.push(',');
            w_f64(out, c.y);
            out.push(',');
            w_f64(out, c.z);
            out.push(',');
            w_f64(out, hw);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"tree\":");
    w_tree(out, &e.tree);
    out.push_str(",\"plan\":");
    match &e.plan {
        Some(p) => w_plan(out, p),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"plan_stale\":{},\"counts_pending\":{}}}",
        e.plan_stale, e.counts_pending
    );
}

fn w_filter(out: &mut String, f: &FilterSnapshot) {
    out.push_str("{\"window\":[");
    for (i, &v) in f.window.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_f64(out, v);
    }
    let _ = write!(out, "],\"k\":{},\"alpha\":", f.k);
    w_f64(out, f.alpha);
    out.push_str(",\"ewma\":");
    match f.ewma {
        Some(v) => w_f64(out, v),
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"rejected\":{}}}", f.rejected);
}

fn w_fault_event(out: &mut String, ev: &FaultEvent) {
    match *ev {
        FaultEvent::GpuSlowdown { device, factor } => {
            let _ = write!(out, "[\"gpu_slowdown\",{device},");
            w_f64(out, factor);
            out.push(']');
        }
        FaultEvent::GpuDropout { device } => {
            let _ = write!(out, "[\"gpu_dropout\",{device}]");
        }
        FaultEvent::GpuRecover { device } => {
            let _ = write!(out, "[\"gpu_recover\",{device}]");
        }
        FaultEvent::ExternalCpuLoad { factor } => {
            out.push_str("[\"cpu_load\",");
            w_f64(out, factor);
            out.push(']');
        }
        FaultEvent::TimingNoise { sigma } => {
            out.push_str("[\"noise\",");
            w_f64(out, sigma);
            out.push(']');
        }
    }
}

fn w_balancer(out: &mut String, b: &BalancerSnapshot) {
    let c = &b.cfg;
    let _ = write!(
        out,
        "{{\"s_min\":{},\"s_max\":{},\"eps\":",
        c.s_min, c.s_max
    );
    w_f64(out, c.eps_switch_s);
    out.push_str(",\"reg_frac\":");
    w_f64(out, c.regression_frac);
    let _ = write!(out, ",\"use_fgo\":{},\"fgo_batch\":", c.use_fgo);
    w_f64(out, c.fgo_batch_frac);
    let _ = write!(out, ",\"fgo_rounds\":{},\"incr_factor\":", c.fgo_max_rounds);
    w_f64(out, c.incr_factor);
    out.push_str(",\"incr_tol\":");
    w_f64(out, c.incr_tol);
    let _ = write!(
        out,
        ",\"hysteresis\":{},\"strategy\":\"{}\",\"state\":\"{}\",\"s\":{},\"lo\":{},\"hi\":{},\"best\":",
        c.regression_hysteresis,
        b.strategy.name(),
        b.state.name(),
        b.s,
        b.lo,
        b.hi
    );
    w_f64(out, b.best_compute);
    out.push_str(",\"incr_best\":");
    match b.incr_best {
        Some((s, t)) => {
            let _ = write!(out, "[{s},");
            w_f64(out, t);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"incr_dir_up\":");
    match b.incr_dir_up {
        Some(up) => {
            let _ = write!(out, "{up}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"incr_flipped\":{},\"regress_count\":{},\"last_online\":",
        b.incr_flipped, b.regress_count
    );
    match b.last_online {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"reset_best_next\":{}}}", b.reset_best_next);
}

fn w_record(out: &mut String, r: &StepRecord) {
    let _ = write!(out, "[{},{},\"{}\",", r.step, r.s, r.state.name());
    w_f64(out, r.t_cpu);
    out.push(',');
    w_f64(out, r.t_gpu);
    out.push(',');
    w_f64(out, r.t_lb);
    out.push(',');
    w_f64(out, r.gpu_efficiency);
    let _ = write!(out, ",{},{}]", r.p2p_interactions, r.m2l_ops);
}

fn w_tracker(out: &mut String, t: &TrackerSnapshot) {
    out.push_str("{\"engine\":");
    w_engine(out, &t.engine);
    out.push_str(",\"model\":[");
    let m = &t.model;
    for (i, v) in [
        m.c_p2m,
        m.c_m2m,
        m.c_m2l,
        m.c_l2l,
        m.c_l2p,
        m.c_cpu_pair,
        m.c_node,
        m.parallel_rate,
        m.c_gpu_pair,
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        w_f64(out, v);
    }
    let _ = write!(
        out,
        "],\"model_observed\":{},\"balancer\":",
        m.is_observed()
    );
    w_balancer(out, &t.balancer);
    out.push_str(",\"records\":[");
    for (i, r) in t.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_record(out, r);
    }
    let _ = write!(out, "],\"first\":{},\"faults\":[", t.first);
    for (i, tf) in t.faults.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},", tf.step);
        w_fault_event(out, &tf.event);
        out.push(']');
    }
    out.push_str("],\"gpu_status\":");
    match &t.gpu_status {
        Some(st) => {
            out.push('[');
            for (i, d) in st.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},", d.online as u8);
                w_f64(out, d.slowdown);
                out.push(']');
            }
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"cpu_load\":");
    w_f64(out, t.cpu_load);
    out.push_str(",\"noise_sigma\":");
    w_f64(out, t.noise_sigma);
    let _ = write!(out, ",\"noise_state\":{},\"filter_cpu\":", t.noise_state);
    w_filter(out, &t.filter_cpu);
    out.push_str(",\"filter_gpu\":");
    w_filter(out, &t.filter_gpu);
    out.push_str(",\"pos\":[");
    for (i, p) in t.pos.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_f64(out, p.x);
        out.push(',');
        w_f64(out, p.y);
        out.push(',');
        w_f64(out, p.z);
    }
    out.push_str("]}");
}

/// Wrap a payload in the versioned, checksummed envelope.
fn seal(kind: &str, payload: String) -> String {
    let checksum = fnv1a64(payload.as_bytes());
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"{kind}\",\"checksum\":\"{checksum:016x}\",\"payload\":{payload}}}"
    )
}

/// Serialize an engine snapshot to checkpoint text.
pub fn engine_to_json(snap: &EngineSnapshot) -> String {
    let mut payload = String::with_capacity(1 << 16);
    w_engine(&mut payload, snap);
    seal("engine", payload)
}

/// Serialize a tracker snapshot to checkpoint text.
pub fn tracker_to_json(snap: &TrackerSnapshot) -> String {
    let mut payload = String::with_capacity(1 << 18);
    w_tracker(&mut payload, snap);
    seal("tracker", payload)
}

// ---- minimal JSON parser ----

/// Parsed JSON value. Numbers keep their raw text: the format writes every
/// number as a decimal `u64` (floats as bit patterns), so interpretation is
/// the reader's job and no precision is lost in a double round-trip.
#[derive(Clone, Debug)]
enum JVal {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<JVal>),
    Obj(Vec<(String, JVal)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JVal, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JVal::Bool(true)),
            Some(b'f') => self.literal("false", JVal::Bool(false)),
            Some(b'n') => self.literal("null", JVal::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: JVal) -> Result<JVal, String> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<JVal, String> {
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        while matches!(self.bytes.get(self.at), Some(b) if b.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.err("empty number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|_| "utf8")?;
        Ok(JVal::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.at += 1;
                }
                Some(&b) if b < 0x80 => {
                    s.push(b as char);
                    self.at += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole code point.
                    let rest = std::str::from_utf8(&self.bytes[self.at..]).map_err(|_| "utf8")?;
                    let ch = rest.chars().next().ok_or("eof in string")?;
                    s.push(ch);
                    self.at += ch.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<JVal, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(JVal::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JVal::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JVal, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(JVal::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JVal::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---- typed readers over JVal ----

impl JVal {
    fn get<'a>(&'a self, key: &str) -> Result<&'a JVal, String> {
        match self {
            JVal::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field '{key}'")),
            _ => Err(format!("'{key}' looked up on a non-object")),
        }
    }

    fn arr(&self) -> Result<&[JVal], String> {
        match self {
            JVal::Arr(items) => Ok(items),
            _ => Err("expected an array".into()),
        }
    }

    fn str(&self) -> Result<&str, String> {
        match self {
            JVal::Str(s) => Ok(s),
            _ => Err("expected a string".into()),
        }
    }

    fn boolean(&self) -> Result<bool, String> {
        match self {
            JVal::Bool(b) => Ok(*b),
            _ => Err("expected a bool".into()),
        }
    }

    fn u64(&self) -> Result<u64, String> {
        match self {
            JVal::Num(raw) => raw.parse::<u64>().map_err(|e| format!("bad u64: {e}")),
            _ => Err("expected a number".into()),
        }
    }

    fn usize(&self) -> Result<usize, String> {
        Ok(self.u64()? as usize)
    }

    fn u32(&self) -> Result<u32, String> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| format!("{v} overflows u32"))
    }

    /// An `f64` stored as its bit pattern.
    fn f64bits(&self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt<T>(&self, read: impl FnOnce(&JVal) -> Result<T, String>) -> Result<Option<T>, String> {
        match self {
            JVal::Null => Ok(None),
            v => read(v).map(Some),
        }
    }
}

fn r_vec3(v: &JVal) -> Result<Vec3, String> {
    let a = v.arr()?;
    if a.len() != 3 {
        return Err("Vec3 needs 3 components".into());
    }
    Ok(Vec3::new(a[0].f64bits()?, a[1].f64bits()?, a[2].f64bits()?))
}

fn r_u32_vec(v: &JVal) -> Result<Vec<u32>, String> {
    v.arr()?.iter().map(JVal::u32).collect()
}

fn r_lists(v: &JVal) -> Result<Vec<Vec<u32>>, String> {
    v.arr()?.iter().map(r_u32_vec).collect()
}

fn r_counts(v: &JVal) -> Result<OpCounts, String> {
    let a = v.arr()?;
    if a.len() != 7 {
        return Err("OpCounts needs 7 fields".into());
    }
    Ok(OpCounts {
        p2m_bodies: a[0].u64()?,
        m2m_ops: a[1].u64()?,
        m2l_ops: a[2].u64()?,
        l2l_ops: a[3].u64()?,
        l2p_bodies: a[4].u64()?,
        p2p_interactions: a[5].u64()?,
        active_nodes: a[6].u64()?,
    })
}

fn r_tree(v: &JVal) -> Result<TreeSnapshot, String> {
    let mut nodes = Vec::new();
    for n in v.get("nodes")?.arr()? {
        let a = n.arr()?;
        if a.len() != 10 {
            return Err("node needs 10 fields".into());
        }
        let level = a[4].u64()?;
        nodes.push(Node {
            center: Vec3::new(a[0].f64bits()?, a[1].f64bits()?, a[2].f64bits()?),
            half_width: a[3].f64bits()?,
            level: u16::try_from(level).map_err(|_| format!("level {level} overflows u16"))?,
            parent: a[5].u32()?,
            first_child: a[6].u32()?,
            begin: a[7].u32()?,
            end: a[8].u32()?,
            collapsed: a[9].u64()? != 0,
        });
        let (p, fc) = (
            nodes.last().unwrap().parent,
            nodes.last().unwrap().first_child,
        );
        let _ = (p == NONE, fc == NONE); // NONE round-trips as a plain u32
    }
    let codes = v
        .get("codes")?
        .arr()?
        .iter()
        .map(JVal::u64)
        .collect::<Result<Vec<u64>, _>>()?;
    let max_level = v.get("max_level")?.u64()?;
    Ok(TreeSnapshot {
        nodes,
        order: r_u32_vec(v.get("order")?)?,
        codes,
        s_value: v.get("s_value")?.usize()?,
        root_center: r_vec3(v.get("root_center")?)?,
        root_half_width: v.get("root_half_width")?.f64bits()?,
        max_level: u16::try_from(max_level).map_err(|_| "max_level overflows u16".to_string())?,
    })
}

fn r_plan(v: &JVal) -> Result<ListsSnapshot, String> {
    Ok(ListsSnapshot {
        theta: v.get("theta")?.f64bits()?,
        m2l: r_lists(v.get("m2l")?)?,
        p2p: r_lists(v.get("p2p")?)?,
        rev_m2l: r_lists(v.get("rev_m2l")?)?,
        rev_p2p: r_lists(v.get("rev_p2p")?)?,
        node_counts: v
            .get("node_counts")?
            .arr()?
            .iter()
            .map(r_counts)
            .collect::<Result<_, _>>()?,
        totals: r_counts(v.get("totals")?)?,
        body_count: r_u32_vec(v.get("body_count")?)?,
        stamp: r_u32_vec(v.get("stamp")?)?,
        epoch: v.get("epoch")?.u32()?,
    })
}

fn r_engine(v: &JVal) -> Result<EngineSnapshot, String> {
    let theta = v.get("theta")?.f64bits()?;
    if !(theta > 0.0 && theta <= 1.0) {
        return Err(format!("MAC theta {theta} out of (0, 1]"));
    }
    let domain = v.get("domain")?.opt(|d| {
        let a = d.arr()?;
        if a.len() != 4 {
            return Err("domain needs [cx, cy, cz, hw]".into());
        }
        Ok((
            Vec3::new(a[0].f64bits()?, a[1].f64bits()?, a[2].f64bits()?),
            a[3].f64bits()?,
        ))
    })?;
    Ok(EngineSnapshot {
        params: FmmParams {
            order: v.get("order")?.usize()?,
            mac: Mac::new(theta),
            max_level: u16::try_from(v.get("max_level")?.u64()?)
                .map_err(|_| "max_level overflows u16".to_string())?,
        },
        domain,
        tree: r_tree(v.get("tree")?)?,
        plan: v.get("plan")?.opt(r_plan)?,
        plan_stale: v.get("plan_stale")?.boolean()?,
        // Absent in snapshots written before the field existed; those were
        // only restorable when nothing was pending.
        counts_pending: match v.get("counts_pending") {
            Ok(b) => b.boolean()?,
            Err(_) => false,
        },
    })
}

fn r_filter(v: &JVal) -> Result<FilterSnapshot, String> {
    Ok(FilterSnapshot {
        window: v
            .get("window")?
            .arr()?
            .iter()
            .map(JVal::f64bits)
            .collect::<Result<_, _>>()?,
        k: v.get("k")?.usize()?,
        alpha: v.get("alpha")?.f64bits()?,
        ewma: v.get("ewma")?.opt(JVal::f64bits)?,
        rejected: v.get("rejected")?.u64()?,
    })
}

fn r_strategy(name: &str) -> Result<Strategy, String> {
    match name {
        "static_s" => Ok(Strategy::StaticS),
        "enforce_only" => Ok(Strategy::EnforceOnly),
        "full" => Ok(Strategy::Full),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

fn r_state(name: &str) -> Result<LbState, String> {
    match name {
        "search" => Ok(LbState::Search),
        "incremental" => Ok(LbState::Incremental),
        "observation" => Ok(LbState::Observation),
        "frozen" => Ok(LbState::Frozen),
        "recovery" => Ok(LbState::Recovery),
        other => Err(format!("unknown LB state '{other}'")),
    }
}

fn r_balancer(v: &JVal) -> Result<BalancerSnapshot, String> {
    Ok(BalancerSnapshot {
        cfg: LbConfig {
            s_min: v.get("s_min")?.usize()?,
            s_max: v.get("s_max")?.usize()?,
            eps_switch_s: v.get("eps")?.f64bits()?,
            regression_frac: v.get("reg_frac")?.f64bits()?,
            use_fgo: v.get("use_fgo")?.boolean()?,
            fgo_batch_frac: v.get("fgo_batch")?.f64bits()?,
            fgo_max_rounds: v.get("fgo_rounds")?.usize()?,
            incr_factor: v.get("incr_factor")?.f64bits()?,
            incr_tol: v.get("incr_tol")?.f64bits()?,
            regression_hysteresis: v.get("hysteresis")?.usize()?,
        },
        strategy: r_strategy(v.get("strategy")?.str()?)?,
        state: r_state(v.get("state")?.str()?)?,
        s: v.get("s")?.usize()?,
        lo: v.get("lo")?.usize()?,
        hi: v.get("hi")?.usize()?,
        best_compute: v.get("best")?.f64bits()?,
        incr_best: v.get("incr_best")?.opt(|p| {
            let a = p.arr()?;
            if a.len() != 2 {
                return Err("incr_best needs [s, t]".into());
            }
            Ok((a[0].usize()?, a[1].f64bits()?))
        })?,
        incr_dir_up: v.get("incr_dir_up")?.opt(JVal::boolean)?,
        incr_flipped: v.get("incr_flipped")?.boolean()?,
        regress_count: v.get("regress_count")?.usize()?,
        last_online: v.get("last_online")?.opt(JVal::usize)?,
        reset_best_next: v.get("reset_best_next")?.boolean()?,
    })
}

fn r_record(v: &JVal) -> Result<StepRecord, String> {
    let a = v.arr()?;
    if a.len() != 9 {
        return Err("step record needs 9 fields".into());
    }
    Ok(StepRecord {
        step: a[0].usize()?,
        s: a[1].usize()?,
        state: r_state(a[2].str()?)?,
        t_cpu: a[3].f64bits()?,
        t_gpu: a[4].f64bits()?,
        t_lb: a[5].f64bits()?,
        gpu_efficiency: a[6].f64bits()?,
        p2p_interactions: a[7].u64()?,
        m2l_ops: a[8].u64()?,
    })
}

fn r_fault_event(v: &JVal) -> Result<FaultEvent, String> {
    let a = v.arr()?;
    match a.first().ok_or("empty fault event")?.str()? {
        "gpu_slowdown" => Ok(FaultEvent::GpuSlowdown {
            device: a[1].usize()?,
            factor: a[2].f64bits()?,
        }),
        "gpu_dropout" => Ok(FaultEvent::GpuDropout {
            device: a[1].usize()?,
        }),
        "gpu_recover" => Ok(FaultEvent::GpuRecover {
            device: a[1].usize()?,
        }),
        "cpu_load" => Ok(FaultEvent::ExternalCpuLoad {
            factor: a[1].f64bits()?,
        }),
        "noise" => Ok(FaultEvent::TimingNoise {
            sigma: a[1].f64bits()?,
        }),
        other => Err(format!("unknown fault event '{other}'")),
    }
}

fn r_tracker(v: &JVal) -> Result<TrackerSnapshot, String> {
    let model_coeffs = v.get("model")?.arr()?;
    if model_coeffs.len() != 9 {
        return Err("model needs 9 coefficients".into());
    }
    let mut model = CostModel::new();
    model.c_p2m = model_coeffs[0].f64bits()?;
    model.c_m2m = model_coeffs[1].f64bits()?;
    model.c_m2l = model_coeffs[2].f64bits()?;
    model.c_l2l = model_coeffs[3].f64bits()?;
    model.c_l2p = model_coeffs[4].f64bits()?;
    model.c_cpu_pair = model_coeffs[5].f64bits()?;
    model.c_node = model_coeffs[6].f64bits()?;
    model.parallel_rate = model_coeffs[7].f64bits()?;
    model.c_gpu_pair = model_coeffs[8].f64bits()?;
    model.set_observed(v.get("model_observed")?.boolean()?);
    let mut events = Vec::new();
    for tf in v.get("faults")?.arr()? {
        let pair = tf.arr()?;
        if pair.len() != 2 {
            return Err("timed fault needs [step, event]".into());
        }
        events.push(TimedFault {
            step: pair[0].usize()?,
            event: r_fault_event(&pair[1])?,
        });
    }
    // Rebuild through push(): within-step insertion order is preserved for
    // an already-sorted script, and cross-step order is re-established even
    // if the text was hand-edited.
    let mut faults = FaultSchedule::new();
    for tf in events {
        faults.push(tf.step, tf.event);
    }
    let gpu_status = v.get("gpu_status")?.opt(|st| {
        st.arr()?
            .iter()
            .map(|d| {
                let a = d.arr()?;
                if a.len() != 2 {
                    return Err("device status needs [online, slowdown]".into());
                }
                Ok(DeviceStatus {
                    online: a[0].u64()? != 0,
                    slowdown: a[1].f64bits()?,
                })
            })
            .collect::<Result<Vec<DeviceStatus>, String>>()
    })?;
    let flat = v.get("pos")?.arr()?;
    if flat.len() % 3 != 0 {
        return Err("pos stream length not a multiple of 3".into());
    }
    let mut pos = Vec::with_capacity(flat.len() / 3);
    for xyz in flat.chunks_exact(3) {
        pos.push(Vec3::new(
            xyz[0].f64bits()?,
            xyz[1].f64bits()?,
            xyz[2].f64bits()?,
        ));
    }
    Ok(TrackerSnapshot {
        engine: r_engine(v.get("engine")?)?,
        model,
        balancer: r_balancer(v.get("balancer")?)?,
        records: v
            .get("records")?
            .arr()?
            .iter()
            .map(r_record)
            .collect::<Result<_, _>>()?,
        first: v.get("first")?.boolean()?,
        faults,
        gpu_status,
        cpu_load: v.get("cpu_load")?.f64bits()?,
        noise_sigma: v.get("noise_sigma")?.f64bits()?,
        noise_state: v.get("noise_state")?.u64()?,
        filter_cpu: r_filter(v.get("filter_cpu")?)?,
        filter_gpu: r_filter(v.get("filter_gpu")?)?,
        pos,
    })
}

// ---- envelope verification ----

/// Parse and verify the envelope: schema version, kind, and checksum over
/// the exact payload bytes. Returns the parsed payload.
fn open(text: &str, kind: &str) -> Result<JVal, Error> {
    let root = Parser::new(text)
        .value()
        .map_err(|e| Error::Checkpoint(format!("parse: {e}")))?;
    let version = root
        .get("schema_version")
        .and_then(|v| v.u64())
        .map_err(Error::Checkpoint)?;
    if version != SCHEMA_VERSION as u64 {
        return Err(Error::Checkpoint(format!(
            "schema version {version} unsupported (this build reads {SCHEMA_VERSION})"
        )));
    }
    let got_kind = root
        .get("kind")
        .and_then(|v| v.str().map(str::to_string))
        .map_err(Error::Checkpoint)?;
    if got_kind != kind {
        return Err(Error::Checkpoint(format!(
            "checkpoint kind '{got_kind}', expected '{kind}'"
        )));
    }
    let declared = root
        .get("checksum")
        .and_then(|v| v.str().map(str::to_string))
        .map_err(Error::Checkpoint)?;
    // The payload is the last envelope field; checksum the exact bytes the
    // writer produced (envelopes are machine-generated, not pretty-printed).
    let marker = "\"payload\":";
    let at = text
        .find(marker)
        .ok_or_else(|| Error::Checkpoint("no payload field".into()))?;
    let payload_text = &text[at + marker.len()..text.len() - 1];
    let actual = format!("{:016x}", fnv1a64(payload_text.as_bytes()));
    if declared != actual {
        return Err(Error::Checkpoint(format!(
            "checksum mismatch: declared {declared}, computed {actual}"
        )));
    }
    root.get("payload").cloned().map_err(Error::Checkpoint)
}

/// Parse and verify an engine checkpoint.
pub fn engine_from_json(text: &str) -> Result<EngineSnapshot, Error> {
    let payload = open(text, "engine")?;
    r_engine(&payload).map_err(Error::Checkpoint)
}

/// Parse and verify a tracker checkpoint.
pub fn tracker_from_json(text: &str) -> Result<TrackerSnapshot, Error> {
    let payload = open(text, "tracker")?;
    r_tracker(&payload).map_err(Error::Checkpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FmmParams, HeteroNode};
    use crate::engine::FmmEngine;
    use fmm_math::GravityKernel;
    use nbody::plummer;

    fn sample_engine() -> FmmEngine<GravityKernel> {
        let b = plummer(800, 1.0, 1.0, 901);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 48);
        e.refresh_lists();
        e
    }

    #[test]
    fn engine_checkpoint_roundtrips_exactly() {
        let e = sample_engine();
        let snap = e.checkpoint_state();
        let text = engine_to_json(&snap);
        let back = engine_from_json(&text).unwrap();
        assert_eq!(back.tree.nodes.len(), snap.tree.nodes.len());
        assert_eq!(back.tree.order, snap.tree.order);
        assert_eq!(back.tree.codes, snap.tree.codes);
        for (a, b) in back.tree.nodes.iter().zip(&snap.tree.nodes) {
            assert_eq!(a.center.x.to_bits(), b.center.x.to_bits());
            assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
            assert_eq!(a.begin, b.begin);
            assert_eq!(a.end, b.end);
            assert_eq!(a.collapsed, b.collapsed);
        }
        let (pa, pb) = (back.plan.unwrap(), snap.plan.unwrap());
        assert_eq!(pa.m2l, pb.m2l);
        assert_eq!(pa.p2p, pb.p2p);
        assert_eq!(pa.rev_m2l, pb.rev_m2l);
        assert_eq!(pa.epoch, pb.epoch);
        // Serialization is deterministic: same state, same bytes.
        assert_eq!(text, engine_to_json(&e.checkpoint_state()));
    }

    #[test]
    fn bit_patterns_survive_nan_and_negative_zero() {
        let mut out = String::new();
        for v in [f64::NAN, f64::INFINITY, -0.0, 1.0e-308] {
            out.clear();
            w_f64(&mut out, v);
            let parsed = Parser::new(&out).value().unwrap();
            assert_eq!(parsed.f64bits().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn tampered_payload_fails_checksum() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        // Flip one digit inside the payload.
        let at = text.find("\"payload\":").unwrap() + 20;
        let mut bytes = text.into_bytes();
        let old = bytes[at];
        bytes[at] = if old == b'3' { b'4' } else { b'3' };
        let tampered = String::from_utf8(bytes).unwrap();
        let err = engine_from_json(&tampered);
        assert!(
            matches!(err, Err(Error::Checkpoint(ref m)) if m.contains("checksum") || m.contains("parse")),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_schema_version_is_refused() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        let bumped = text.replacen("\"schema_version\":1", "\"schema_version\":2", 1);
        let err = engine_from_json(&bumped).unwrap_err();
        assert!(
            matches!(err, Error::Checkpoint(ref m) if m.contains("schema version")),
            "{err}"
        );
    }

    #[test]
    fn wrong_kind_is_refused() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        let err = tracker_from_json(&text).unwrap_err();
        assert!(
            matches!(err, Error::Checkpoint(ref m) if m.contains("kind")),
            "{err}"
        );
    }

    #[test]
    fn restored_engine_passes_audits() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        let snap = engine_from_json(&text).unwrap();
        let restored = FmmEngine::restore_state(GravityKernel::default(), snap).unwrap();
        restored.audit_tree().unwrap();
        restored.audit_plan().unwrap();
        assert_eq!(restored.tree().s_value(), e.tree().s_value());
        assert_eq!(restored.plan_epoch(), e.plan_epoch());
    }

    #[test]
    fn garbage_inputs_produce_structured_errors() {
        for text in ["", "{", "[1,2", "{\"schema_version\":true}", "nonsense"] {
            assert!(matches!(engine_from_json(text), Err(Error::Checkpoint(_))));
        }
        let node = HeteroNode::serial();
        let _ = node; // silence unused in cfg(test) without gpus
    }
}
