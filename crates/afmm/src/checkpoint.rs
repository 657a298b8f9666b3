//! Checkpoint/restore: a versioned, checksummed snapshot format for the
//! whole simulation state.
//!
//! The format is JSON — self-describing and diffable like the telemetry
//! traces — wrapped in an envelope:
//!
//! ```json
//! {"schema_version":5,"kind":"tracker","checksum":"<fnv1a64 hex>","payload":{...}}
//! ```
//!
//! The checksum is FNV-1a-64 over the exact payload bytes, so any bit flip
//! in transit is caught before a corrupted state is trusted. Every `f64` is
//! serialized as the decimal value of its IEEE-754 bit pattern (`to_bits`):
//! exact round-trips with no decimal-formatting ambiguity, NaN/inf-safe,
//! and a restored run therefore continues **bit-identically**. The
//! execution plan is not stored: its lists, whose order every float sum
//! follows, are a function of the tree, so the restored engine's first
//! refresh builds the plan the run would have had.
//!
//! The writer streams into a `String`; reading goes through the workspace's
//! one JSON parser ([`telemetry::json`]), whose exact `u64` integers carry
//! the bit patterns, and no input — truncated, tampered or hostile — makes
//! a restore panic: every failure is an [`Error::Checkpoint`].

use crate::balance::{BalancerSnapshot, LbConfig, LbState, Strategy, Walk};
use crate::config::FmmParams;
use crate::cost::CostModel;
use crate::error::Error;
use crate::filter::FilterSnapshot;
use crate::simulate::StepRecord;
use geom::Vec3;
use gpu_sim::{DeviceStatus, FaultEvent, FaultSchedule};
use octree::{Mac, Node, TreeSnapshot};
use std::fmt::Write as _;
use telemetry::json::{push_opt, push_seq, Json};

/// Version of the on-disk schema. Bump on any incompatible layout change;
/// restore refuses snapshots from a different version.
pub const SCHEMA_VERSION: u32 = 5;

/// Plain-data image of an [`FmmEngine`](crate::FmmEngine): numerical
/// parameters and the octree. The execution plan is derived from the tree
/// and scratch buffers are overwritten by every solve, so neither is kept.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    pub params: FmmParams,
    pub domain: Option<(Vec3, f64)>,
    pub tree: TreeSnapshot,
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
//
// Streams straight into a `String` (no tree for a million-body snapshot);
// brackets, commas and `null`s come from the shared `push_seq`/`push_opt`.

fn w_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{}", v.to_bits());
}

fn w_vec3(out: &mut String, v: Vec3) {
    push_seq(out, [v.x, v.y, v.z], w_f64);
}

fn w_u64_slice<T: Copy + Into<u64>>(out: &mut String, xs: &[T]) {
    push_seq(out, xs, |out, &x| {
        let _ = write!(out, "{}", x.into());
    });
}

fn w_tree(out: &mut String, t: &TreeSnapshot) {
    out.push_str("{\"nodes\":");
    push_seq(out, &t.nodes, |out, n| {
        out.push('[');
        for v in [n.center.x, n.center.y, n.center.z, n.half_width] {
            w_f64(out, v);
            out.push(',');
        }
        let _ = write!(
            out,
            "{},{},{},{},{},{}]",
            n.level, n.parent, n.first_child, n.begin, n.end, n.collapsed as u8
        );
    });
    out.push_str(",\"order\":");
    w_u64_slice(out, &t.order);
    out.push_str(",\"codes\":");
    w_u64_slice(out, &t.codes);
    let _ = write!(out, ",\"s_value\":{},\"root_center\":", t.s_value);
    w_vec3(out, t.root_center);
    out.push_str(",\"root_half_width\":");
    w_f64(out, t.root_half_width);
    let _ = write!(out, ",\"max_level\":{}}}", t.max_level);
}

fn w_engine(out: &mut String, e: &EngineSnapshot) {
    let _ = write!(out, "{{\"order\":{},\"theta\":", e.params.order);
    w_f64(out, e.params.mac.theta);
    let _ = write!(out, ",\"max_level\":{},\"domain\":", e.params.max_level);
    push_opt(out, e.domain, |out, (c, hw)| {
        push_seq(out, [c.x, c.y, c.z, hw], w_f64)
    });
    out.push_str(",\"tree\":");
    w_tree(out, &e.tree);
    out.push('}');
}

fn w_filter(out: &mut String, f: &FilterSnapshot) {
    out.push_str("{\"window\":");
    push_seq(out, f.window.iter().copied(), w_f64);
    out.push_str(",\"ewma\":");
    push_opt(out, f.ewma, w_f64);
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
    let _ = write!(
        out,
        ",\"use_fgo\":{},\"strategy\":\"{}\",\"state\":\"{}\",\"s\":{},\"best\":",
        c.use_fgo,
        b.strategy.name(),
        b.state.name(),
        b.s
    );
    w_f64(out, b.best_compute);
    out.push_str(",\"walk\":");
    push_opt(out, b.walk, |out, w| {
        let _ = write!(out, "[{},", w.best.0);
        w_f64(out, w.best.1);
        out.push(']');
    });
    out.push_str(",\"last_online\":");
    push_opt(out, b.last_online, |out, n| {
        let _ = write!(out, "{n}");
    });
    let _ = write!(out, ",\"reset_best_next\":{}}}", b.reset_best_next);
}

fn w_record(out: &mut String, r: &StepRecord) {
    let _ = write!(out, "[{},{},\"{}\",", r.step, r.s, r.state.name());
    for v in [r.t_cpu, r.t_gpu, r.t_lb, r.gpu_efficiency] {
        w_f64(out, v);
        out.push(',');
    }
    let _ = write!(out, "{},{}]", r.p2p_interactions, r.m2l_ops);
}

fn w_tracker(out: &mut String, t: &TrackerSnapshot) {
    out.push_str("{\"engine\":");
    w_engine(out, &t.engine);
    out.push_str(",\"model\":");
    let m = &t.model;
    push_seq(out, m.coefficients().map(|(_, c)| c), w_f64);
    let _ = write!(out, ",\"model_observed\":{},\"balancer\":", m.is_observed());
    w_balancer(out, &t.balancer);
    out.push_str(",\"records\":");
    push_seq(out, &t.records, w_record);
    out.push_str(",\"faults\":");
    push_seq(out, t.faults.events(), |out, tf| {
        let _ = write!(out, "[{},", tf.step);
        w_fault_event(out, &tf.event);
        out.push(']');
    });
    out.push_str(",\"gpu_status\":");
    push_opt(out, t.gpu_status.as_ref(), |out, st| {
        push_seq(out, st, |out, d| {
            let _ = write!(out, "[{},", d.online as u8);
            w_f64(out, d.slowdown);
            out.push(']');
        })
    });
    out.push_str(",\"cpu_load\":");
    w_f64(out, t.cpu_load);
    out.push_str(",\"noise_sigma\":");
    w_f64(out, t.noise_sigma);
    let _ = write!(out, ",\"noise_state\":{},\"filter_cpu\":", t.noise_state);
    w_filter(out, &t.filter_cpu);
    out.push_str(",\"filter_gpu\":");
    w_filter(out, &t.filter_gpu);
    out.push_str(",\"pos\":");
    push_seq(out, t.pos.iter().flat_map(|p| [p.x, p.y, p.z]), w_f64);
    out.push('}');
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

// ---- typed readers over the parsed tree ----

type Read<T> = Result<T, String>;

fn field<'a>(v: &'a Json, key: &str) -> Read<&'a Json> {
    match v {
        Json::Obj(_) => v.get(key).ok_or_else(|| format!("missing field '{key}'")),
        _ => Err(format!("'{key}' looked up on a non-object")),
    }
}

fn r_arr(v: &Json) -> Read<&[Json]> {
    v.as_arr().ok_or_else(|| "expected an array".into())
}

/// An array of exactly `N` elements, so destructuring it cannot index out
/// of bounds whatever the file holds.
fn r_tuple<'a, const N: usize>(v: &'a Json, what: &str) -> Read<&'a [Json; N]> {
    r_arr(v)?
        .try_into()
        .map_err(|_| format!("{what} needs {N} fields"))
}

fn r_vec<T>(v: &Json, read: impl Fn(&Json) -> Read<T>) -> Read<Vec<T>> {
    r_arr(v)?.iter().map(read).collect()
}

fn r_str(v: &Json) -> Read<&str> {
    v.as_str().ok_or_else(|| "expected a string".into())
}

fn r_bool(v: &Json) -> Read<bool> {
    v.as_bool().ok_or_else(|| "expected a bool".into())
}

/// Integer tokens only: floats travel as bit patterns, so a value that went
/// through `f64` on the way in would come out as a different float.
fn r_u64(v: &Json) -> Read<u64> {
    match *v {
        Json::U64(x) => Ok(x),
        _ => Err("expected an unsigned integer".into()),
    }
}

fn r_int<T: TryFrom<u64>>(v: &Json) -> Read<T> {
    let x = r_u64(v)?;
    T::try_from(x).map_err(|_| format!("{x} overflows {}", std::any::type_name::<T>()))
}

/// An `f64` stored as its bit pattern.
fn r_f64(v: &Json) -> Read<f64> {
    r_u64(v).map(f64::from_bits)
}

fn r_opt<T>(v: &Json, read: impl FnOnce(&Json) -> Read<T>) -> Read<Option<T>> {
    match v {
        Json::Null => Ok(None),
        v => read(v).map(Some),
    }
}

fn r_vec3(v: &Json) -> Read<Vec3> {
    let [x, y, z] = r_tuple(v, "Vec3")?;
    Ok(Vec3::new(r_f64(x)?, r_f64(y)?, r_f64(z)?))
}

fn r_node(v: &Json) -> Read<Node> {
    let [cx, cy, cz, hw, level, parent, first_child, begin, end, collapsed] = r_tuple(v, "node")?;
    Ok(Node {
        center: Vec3::new(r_f64(cx)?, r_f64(cy)?, r_f64(cz)?),
        half_width: r_f64(hw)?,
        level: r_int(level)?,
        parent: r_int(parent)?,
        first_child: r_int(first_child)?,
        begin: r_int(begin)?,
        end: r_int(end)?,
        collapsed: r_u64(collapsed)? != 0,
    })
}

fn r_tree(v: &Json) -> Read<TreeSnapshot> {
    Ok(TreeSnapshot {
        nodes: r_vec(field(v, "nodes")?, r_node)?,
        order: r_vec(field(v, "order")?, r_int)?,
        codes: r_vec(field(v, "codes")?, r_u64)?,
        s_value: r_int(field(v, "s_value")?)?,
        root_center: r_vec3(field(v, "root_center")?)?,
        root_half_width: r_f64(field(v, "root_half_width")?)?,
        max_level: r_int(field(v, "max_level")?)?,
    })
}

fn r_engine(v: &Json) -> Read<EngineSnapshot> {
    let theta = r_f64(field(v, "theta")?)?;
    if !(theta > 0.0 && theta <= 1.0) {
        return Err(format!("MAC theta {theta} out of (0, 1]"));
    }
    // The engine builds its expansion tables from the order on restore.
    let order = r_int(field(v, "order")?)?;
    if order > fmm_math::MAX_ORDER {
        return Err(format!(
            "expansion order {order} above the highest the far field is verified at, {}",
            fmm_math::MAX_ORDER
        ));
    }
    let domain = r_opt(field(v, "domain")?, |d| {
        let [cx, cy, cz, hw] = r_tuple(d, "domain")?;
        Ok((Vec3::new(r_f64(cx)?, r_f64(cy)?, r_f64(cz)?), r_f64(hw)?))
    })?;
    Ok(EngineSnapshot {
        params: FmmParams {
            order,
            mac: Mac::new(theta),
            max_level: r_int(field(v, "max_level")?)?,
        },
        domain,
        tree: r_tree(field(v, "tree")?)?,
    })
}

fn r_filter(v: &Json) -> Read<FilterSnapshot> {
    Ok(FilterSnapshot {
        window: r_vec(field(v, "window")?, r_f64)?,
        ewma: r_opt(field(v, "ewma")?, r_f64)?,
        rejected: r_u64(field(v, "rejected")?)?,
    })
}

fn r_strategy(v: &Json) -> Read<Strategy> {
    match r_str(v)? {
        "static_s" => Ok(Strategy::StaticS),
        "enforce_only" => Ok(Strategy::EnforceOnly),
        "full" => Ok(Strategy::Full),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

fn r_state(v: &Json) -> Read<LbState> {
    match r_str(v)? {
        "search" => Ok(LbState::Search),
        "incremental" => Ok(LbState::Incremental),
        "observation" => Ok(LbState::Observation),
        "frozen" => Ok(LbState::Frozen),
        other => Err(format!("unknown LB state '{other}'")),
    }
}

fn r_balancer(v: &Json) -> Read<BalancerSnapshot> {
    Ok(BalancerSnapshot {
        cfg: LbConfig {
            s_min: r_int(field(v, "s_min")?)?,
            s_max: r_int(field(v, "s_max")?)?,
            eps_switch_s: r_f64(field(v, "eps")?)?,
            use_fgo: r_bool(field(v, "use_fgo")?)?,
        },
        strategy: r_strategy(field(v, "strategy")?)?,
        state: r_state(field(v, "state")?)?,
        s: r_int(field(v, "s")?)?,
        best_compute: r_f64(field(v, "best")?)?,
        walk: r_opt(field(v, "walk")?, |p| {
            let [s, t] = r_tuple(p, "walk")?;
            Ok(Walk {
                best: (r_int(s)?, r_f64(t)?),
            })
        })?,
        last_online: r_opt(field(v, "last_online")?, r_int)?,
        reset_best_next: r_bool(field(v, "reset_best_next")?)?,
    })
}

fn r_record(v: &Json) -> Read<StepRecord> {
    let [step, s, state, t_cpu, t_gpu, t_lb, eff, p2p, m2l] = r_tuple(v, "step record")?;
    Ok(StepRecord {
        step: r_int(step)?,
        s: r_int(s)?,
        state: r_state(state)?,
        t_cpu: r_f64(t_cpu)?,
        t_gpu: r_f64(t_gpu)?,
        t_lb: r_f64(t_lb)?,
        gpu_efficiency: r_f64(eff)?,
        p2p_interactions: r_u64(p2p)?,
        m2l_ops: r_u64(m2l)?,
    })
}

fn r_fault_event(v: &Json) -> Read<FaultEvent> {
    let tag = r_str(r_arr(v)?.first().ok_or("empty fault event")?)?;
    if tag == "gpu_slowdown" {
        let [_, device, factor] = r_tuple(v, tag)?;
        return Ok(FaultEvent::GpuSlowdown {
            device: r_int(device)?,
            factor: r_f64(factor)?,
        });
    }
    let [_, arg] = r_tuple(v, tag)?;
    Ok(match tag {
        "gpu_dropout" => FaultEvent::GpuDropout {
            device: r_int(arg)?,
        },
        "gpu_recover" => FaultEvent::GpuRecover {
            device: r_int(arg)?,
        },
        "cpu_load" => FaultEvent::ExternalCpuLoad {
            factor: r_f64(arg)?,
        },
        "noise" => FaultEvent::TimingNoise { sigma: r_f64(arg)? },
        other => return Err(format!("unknown fault event '{other}'")),
    })
}

fn r_tracker(v: &Json) -> Read<TrackerSnapshot> {
    let [p2m, m2m, m2l, l2l, l2p, cpu_pair, node, rate, gpu_block] =
        r_tuple(field(v, "model")?, "model")?;
    let mut model = CostModel::new();
    model.c_p2m = r_f64(p2m)?;
    model.c_m2m = r_f64(m2m)?;
    model.c_m2l = r_f64(m2l)?;
    model.c_l2l = r_f64(l2l)?;
    model.c_l2p = r_f64(l2p)?;
    model.c_cpu_pair = r_f64(cpu_pair)?;
    model.c_node = r_f64(node)?;
    model.parallel_rate = r_f64(rate)?;
    model.c_gpu_block = r_f64(gpu_block)?;
    model.set_observed(r_bool(field(v, "model_observed")?)?);
    // Rebuild through push(): within-step insertion order is preserved for
    // an already-sorted script, and cross-step order is re-established even
    // if the text was hand-edited.
    let mut faults = FaultSchedule::new();
    for tf in r_arr(field(v, "faults")?)? {
        let [step, event] = r_tuple(tf, "timed fault")?;
        faults.push(r_int(step)?, r_fault_event(event)?);
    }
    let gpu_status = r_opt(field(v, "gpu_status")?, |st| {
        r_vec(st, |d| {
            let [online, slowdown] = r_tuple(d, "device status")?;
            Ok(DeviceStatus {
                online: r_u64(online)? != 0,
                slowdown: r_f64(slowdown)?,
            })
        })
    })?;
    let flat = r_arr(field(v, "pos")?)?;
    if flat.len() % 3 != 0 {
        return Err("pos stream length not a multiple of 3".into());
    }
    let pos = flat
        .chunks_exact(3)
        .map(|xyz| Ok(Vec3::new(r_f64(&xyz[0])?, r_f64(&xyz[1])?, r_f64(&xyz[2])?)))
        .collect::<Read<_>>()?;
    Ok(TrackerSnapshot {
        engine: r_engine(field(v, "engine")?)?,
        model,
        balancer: r_balancer(field(v, "balancer")?)?,
        records: r_vec(field(v, "records")?, r_record)?,
        faults,
        gpu_status,
        cpu_load: r_f64(field(v, "cpu_load")?)?,
        noise_sigma: r_f64(field(v, "noise_sigma")?)?,
        noise_state: r_u64(field(v, "noise_state")?)?,
        filter_cpu: r_filter(field(v, "filter_cpu")?)?,
        filter_gpu: r_filter(field(v, "filter_gpu")?)?,
        pos,
    })
}

// ---- envelope verification ----

/// Parse the whole document, verify the envelope — schema version, kind,
/// and checksum over the exact payload bytes — then hand the payload to
/// `read`. Every failure, from any layer, is an [`Error::Checkpoint`].
fn open<T>(text: &str, kind: &str, read: fn(&Json) -> Read<T>) -> Result<T, Error> {
    let verified = || -> Read<T> {
        let root = Json::parse(text).map_err(|e| format!("parse: {e}"))?;
        let version = r_u64(field(&root, "schema_version")?)?;
        if version != SCHEMA_VERSION as u64 {
            return Err(format!(
                "schema version {version} unsupported (this build reads {SCHEMA_VERSION})"
            ));
        }
        let got_kind = r_str(field(&root, "kind")?)?;
        if got_kind != kind {
            return Err(format!("checkpoint kind '{got_kind}', expected '{kind}'"));
        }
        let declared = r_str(field(&root, "checksum")?)?;
        // The payload is the last envelope field, so its bytes run from the
        // first `"payload":` (no string can contain that text unescaped) to
        // the brace that closes the document; envelopes are machine-written,
        // only whitespace after that brace is tolerated.
        let payload_text = text
            .trim_end_matches([' ', '\t', '\n', '\r'])
            .strip_suffix('}')
            .and_then(|body| body.split_once("\"payload\":"))
            .map(|(_, payload)| payload)
            .ok_or("no payload field")?;
        let actual = format!("{:016x}", fnv1a64(payload_text.as_bytes()));
        if declared != actual {
            return Err(format!(
                "checksum mismatch: declared {declared}, computed {actual}"
            ));
        }
        read(field(&root, "payload")?)
    };
    verified().map_err(Error::Checkpoint)
}

/// Parse and verify an engine checkpoint.
pub fn engine_from_json(text: &str) -> Result<EngineSnapshot, Error> {
    open(text, "engine", r_engine)
}

/// Parse and verify a tracker checkpoint.
pub fn tracker_from_json(text: &str) -> Result<TrackerSnapshot, Error> {
    open(text, "tracker", r_tracker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FmmParams, HeteroNode};
    use crate::engine::FmmEngine;
    use crate::simulate::StrategyTracker;
    use fmm_math::GravityKernel;
    use nbody::plummer;

    fn sample_engine() -> FmmEngine<GravityKernel> {
        let b = plummer(800, 1.0, 1.0, 901);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 48);
        e.refresh_lists();
        e
    }

    /// A tracker checkpoint whose fault script holds one event of each arity.
    fn sample_tracker_text() -> String {
        let b = plummer(300, 1.0, 1.0, 902);
        let mut t = StrategyTracker::new(
            GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(4, 2),
            Strategy::Full,
            LbConfig::default(),
            &b.pos,
            None,
        );
        t.set_fault_schedule(
            FaultSchedule::new()
                .with(
                    2,
                    FaultEvent::GpuSlowdown {
                        device: 0,
                        factor: 2.0,
                    },
                )
                .with(5, FaultEvent::GpuDropout { device: 1 }),
        );
        t.checkpoint(&b.pos)
    }

    /// `text` with its payload rewritten by `edit` and the checksum
    /// recomputed, so the typed readers behind the checksum are reached.
    fn resealed(text: &str, kind: &str, edit: impl FnOnce(&str) -> String) -> String {
        let body = text.strip_suffix('}').unwrap();
        let (_, payload) = body.split_once("\"payload\":").unwrap();
        seal(kind, edit(payload))
    }

    fn is_checkpoint_err<T: std::fmt::Debug>(r: &Result<T, Error>) -> bool {
        matches!(r, Err(Error::Checkpoint(_)))
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
        // Serialization is deterministic: same state, same bytes.
        assert_eq!(text, engine_to_json(&e.checkpoint_state()));
    }

    #[test]
    fn bit_patterns_survive_nan_and_negative_zero() {
        let mut out = String::new();
        for v in [f64::NAN, f64::INFINITY, -0.0, 1.0e-308] {
            out.clear();
            w_f64(&mut out, v);
            let parsed = Json::parse(&out).unwrap();
            assert_eq!(r_f64(&parsed).unwrap().to_bits(), v.to_bits());
        }
        // A bit pattern spelled as a float token has been through rounding.
        assert!(r_f64(&Json::parse("4e18").unwrap()).is_err());
    }

    /// The writer's bytes are pinned: the engine payload's checksum and
    /// length for this seeded engine as schema v5 writes them — v5 changed
    /// the cost model's GPU coefficient and v4 the balancer's and the
    /// filters' images, not the engine's; v3 dropped the plan. If this moves, old checkpoints stop restoring and
    /// `SCHEMA_VERSION` must move too.
    #[test]
    fn engine_checkpoint_bytes_are_pinned() {
        let text = engine_to_json(&sample_engine().checkpoint_state());
        assert!(
            text.starts_with(
                "{\"schema_version\":5,\"kind\":\"engine\",\"checksum\":\"c22aca8f6c0c6fe0\","
            ),
            "{}",
            &text[..80]
        );
        assert_eq!(text.len(), 29877);
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
        let older = text.replacen("\"schema_version\":5", "\"schema_version\":4", 1);
        assert_ne!(older, text);
        let err = engine_from_json(&older).unwrap_err();
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

    /// A restored engine has no plan until its first refresh, which builds
    /// the one the checkpointed engine held.
    #[test]
    fn restored_engine_passes_audits() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        let snap = engine_from_json(&text).unwrap();
        let mut restored = FmmEngine::restore_state(GravityKernel::default(), snap).unwrap();
        restored.audit_tree().unwrap();
        assert_eq!(restored.plan_epoch(), None);
        assert_eq!(restored.tree().s_value(), e.tree().s_value());
        restored.refresh_plan();
        restored.audit_plan().unwrap();
        assert_eq!(restored.plan_epoch(), e.plan_epoch());
        assert!(restored.lists().m2l == e.lists().m2l);
        assert!(restored.lists().p2p == e.lists().p2p);
        assert_eq!(restored.counts(), e.counts());
    }

    #[test]
    fn garbage_inputs_produce_structured_errors() {
        for text in ["", "{", "[1,2", "{\"schema_version\":true}", "nonsense"] {
            assert!(is_checkpoint_err(&engine_from_json(text)));
        }
    }

    #[test]
    fn trailing_bytes_are_whitespace_or_an_error() {
        let text = engine_to_json(&sample_engine().checkpoint_state());
        // A multi-byte tail: no byte arithmetic may land inside the `é`.
        assert!(is_checkpoint_err(&engine_from_json(&format!("{text}é"))));
        assert!(is_checkpoint_err(&engine_from_json(&format!("{text}}}"))));
        assert!(is_checkpoint_err(&engine_from_json(&format!("{text} x"))));
        // An editor's final newline is not tampering.
        engine_from_json(&format!("{text}\r\n")).unwrap();
        // Whitespace inside the envelope is: the checksum covers exact bytes.
        let spaced = format!("{} }}", text.strip_suffix('}').unwrap());
        let err = engine_from_json(&spaced);
        assert!(
            matches!(err, Err(Error::Checkpoint(ref m)) if m.contains("checksum")),
            "{err:?}"
        );
    }

    #[test]
    fn short_arrays_under_a_valid_checksum_are_errors() {
        let text = sample_tracker_text();
        tracker_from_json(&resealed(&text, "tracker", str::to_string)).unwrap();
        // The checksum is valid, so only the readers' arity checks stand
        // between these and an out-of-bounds index.
        for (full, short) in [
            ("[\"gpu_dropout\",1]", "[\"gpu_dropout\"]"),
            (
                "[\"gpu_slowdown\",0,4611686018427387904]",
                "[\"gpu_slowdown\",0]",
            ),
            ("[5,[\"gpu_dropout\",1]]", "[5]"),
        ] {
            assert!(text.contains(full), "fixture lost {full}");
            let cut = resealed(&text, "tracker", |p| p.replacen(full, short, 1));
            assert!(is_checkpoint_err(&tracker_from_json(&cut)), "{short}");
        }
        let engine = engine_to_json(&sample_engine().checkpoint_state());
        let cut = resealed(&engine, "engine", |p| {
            p.replacen("\"nodes\":[[", "\"nodes\":[[7],[", 1)
        });
        assert!(is_checkpoint_err(&engine_from_json(&cut)));
    }

    #[test]
    fn hostile_nesting_is_an_error_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let deep = "[".repeat(300_000);
                assert!(is_checkpoint_err(&engine_from_json(&deep)));
                let in_payload = format!(
                    "{{\"schema_version\":1,\"kind\":\"engine\",\"checksum\":\"\",\"payload\":{deep}"
                );
                assert!(is_checkpoint_err(&engine_from_json(&in_payload)));
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
