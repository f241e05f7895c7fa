//! The JSON-lines wire protocol.
//!
//! One request per line, one response line per request, always in request
//! order. Commands:
//!
//! * `{"cmd": "simulate", ...}` (the default when `cmd` is omitted) — one
//!   sweep point. Knobs and their defaults mirror
//!   [`SweepRequest::default`]: `protocol` (`stbus-t3`), `topology`
//!   (`distributed`), `workload` (`bursty-posted`), `scale`, `seed`,
//!   `base_wait_states` (1), `wait_states` (the sweep axis; a number, or
//!   an **array** to fan a whole sweep out across worker threads in one
//!   request), `jobs` (worker threads for an array sweep), `fast_gear`
//!   (loosely-timed warm-up quantum, 0/omitted = cycle-accurate). Keys the
//!   parser does not know are ignored.
//! * `{"cmd": "stats"}` — server and cache counters.
//! * `{"cmd": "ping"}` — liveness.
//! * `{"cmd": "shutdown"}` — stop accepting and exit once drained.
//!
//! Every request may carry a numeric `id`, echoed in the response.

use crate::json::{self, write_json_string, Json};
use mpsoc_platform::service::{parse_protocol, parse_topology, parse_workload, SweepRequest};

/// A decoded request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Liveness check.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Drain and exit.
    Shutdown,
    /// One sweep request (one point, or a fanned-out axis).
    Simulate(Box<Simulate>),
}

/// A decoded `simulate` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Simulate {
    /// Echoed request id.
    pub id: u64,
    /// The first (or only) sweep point.
    pub req: SweepRequest,
    /// Remaining sweep-axis values when `wait_states` was an array.
    pub extra_wait_states: Vec<u32>,
    /// Worker threads used to fan an array sweep out.
    pub jobs: usize,
}

impl Simulate {
    /// All requested sweep points, in request order.
    pub fn points(&self) -> Vec<SweepRequest> {
        let mut points = vec![self.req.clone()];
        points.extend(self.extra_wait_states.iter().map(|&ws| SweepRequest {
            wait_states: ws,
            ..self.req.clone()
        }));
        points
    }
}

fn field_u64(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            // Numbers are read as `f64`, which is exact only up to 2^53.
            .ok_or_else(|| format!("'{key}' must be an integer in 0..=9007199254740992")),
    }
}

fn field_u32(obj: &Json, key: &str, default: u32) -> Result<u32, String> {
    let v = field_u64(obj, key, u64::from(default))?;
    u32::try_from(v).map_err(|_| format!("'{key}' out of range"))
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be a string")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown commands,
/// unknown enum wire names, or ill-typed fields.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let obj = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(obj, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    match field_str(&obj, "cmd")?.unwrap_or("simulate") {
        "ping" => Ok(Command::Ping),
        "stats" => Ok(Command::Stats),
        "shutdown" => Ok(Command::Shutdown),
        "simulate" => parse_simulate(&obj).map(|s| Command::Simulate(Box::new(s))),
        other => Err(format!(
            "unknown cmd '{other}' (expected simulate, stats, ping or shutdown)"
        )),
    }
}

fn parse_simulate(obj: &Json) -> Result<Simulate, String> {
    let defaults = SweepRequest::default();
    let mut req = SweepRequest {
        scale: field_u64(obj, "scale", defaults.scale)?,
        seed: field_u64(obj, "seed", defaults.seed)?,
        base_wait_states: field_u32(obj, "base_wait_states", defaults.base_wait_states)?,
        ..defaults
    };
    if let Some(name) = field_str(obj, "protocol")? {
        req.protocol = parse_protocol(name)?;
    }
    if let Some(name) = field_str(obj, "topology")? {
        req.topology = parse_topology(name)?;
    }
    if let Some(name) = field_str(obj, "workload")? {
        req.workload = parse_workload(name)?;
    }
    req.fast_gear = match field_u64(obj, "fast_gear", 0)? {
        0 => None,
        quantum => Some(quantum),
    };
    let mut extra_wait_states = Vec::new();
    match obj.get("wait_states") {
        None | Some(Json::Null) => req.wait_states = req.base_wait_states,
        Some(Json::Arr(items)) => {
            if items.is_empty() {
                return Err("'wait_states' array must be non-empty".into());
            }
            let mut values = Vec::with_capacity(items.len());
            for item in items {
                let v = item
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| "'wait_states' entries must be integers".to_string())?;
                values.push(v);
            }
            req.wait_states = values[0];
            extra_wait_states = values[1..].to_vec();
        }
        Some(v) => {
            req.wait_states = v
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| "'wait_states' must be an integer or array".to_string())?;
        }
    }
    Ok(Simulate {
        id: field_u64(obj, "id", 0)?,
        req,
        extra_wait_states,
        jobs: usize::try_from(field_u64(obj, "jobs", 1)?)
            .map_err(|_| "'jobs' out of range".to_string())?
            .max(1),
    })
}

/// One served sweep point, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointResult {
    /// The point's wait states.
    pub wait_states: u32,
    /// Execution time of the full run in reference-clock cycles.
    pub exec_cycles: u64,
}

/// Whether a simulate request was served from the warm cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Forked from a cached warm state.
    Hit,
    /// Had to run the warm-up itself.
    Miss,
}

impl CacheOutcome {
    /// The wire name (`"hit"` / `"miss"`).
    pub fn wire_name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Serializes a successful simulate response line (without the newline).
pub fn simulate_response(
    id: u64,
    cache: CacheOutcome,
    base_cycles: u64,
    points: &[PointResult],
    micros: u128,
) -> String {
    let mut out = String::with_capacity(96 + points.len() * 40);
    out.push_str(&format!(
        "{{\"id\":{id},\"status\":\"ok\",\"cache\":\"{}\",\"base_cycles\":{base_cycles},\"points\":[",
        cache.wire_name()
    ));
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"wait_states\":{},\"exec_cycles\":{}}}",
            p.wait_states, p.exec_cycles
        ));
    }
    out.push_str(&format!("],\"micros\":{micros}}}"));
    out
}

/// Serializes an error response line (without the newline).
pub fn error_response(id: u64, message: &str) -> String {
    let mut out = format!("{{\"id\":{id},\"status\":\"error\",\"error\":");
    write_json_string(message, &mut out);
    out.push('}');
    out
}

/// Serializes a pong line.
pub fn ping_response(id: u64) -> String {
    format!("{{\"id\":{id},\"status\":\"ok\",\"pong\":true}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_platform::Topology;

    #[test]
    fn defaults_mirror_the_sweep_request() {
        let cmd = parse_command("{}").expect("parses");
        let Command::Simulate(sim) = cmd else {
            panic!("bare object defaults to simulate");
        };
        assert_eq!(sim.req, SweepRequest::default());
        assert_eq!(sim.id, 0);
        assert!(sim.extra_wait_states.is_empty());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        // Clients written against an earlier protocol still send these keys.
        let plain = r#"{"id":4,"topology":"collapsed","wait_states":[2,8]}"#;
        let decorated = r#"{"id":4,"coalesce":false,"topology":"collapsed","wait_states":[2,8],"tick_jobs":2,"colour":"red"}"#;
        assert_eq!(parse_command(decorated), parse_command(plain));
        assert!(matches!(parse_command(plain), Ok(Command::Simulate(_))));
    }

    #[test]
    fn full_request_round_trips() {
        let line = r#"{"id": 9, "cmd": "simulate", "protocol": "ahb", "topology": "collapsed",
                       "workload": "standard", "scale": 2, "seed": 5, "wait_states": 16,
                       "fast_gear": 8}"#;
        let Command::Simulate(sim) = parse_command(line).expect("parses") else {
            panic!("simulate");
        };
        assert_eq!(sim.id, 9);
        assert_eq!(sim.req.topology, Topology::Collapsed);
        assert_eq!(sim.req.scale, 2);
        assert_eq!(sim.req.seed, 5);
        assert_eq!(sim.req.wait_states, 16);
        assert_eq!(sim.req.fast_gear, Some(8));
    }

    #[test]
    fn wait_states_array_fans_out() {
        let line = r#"{"wait_states": [1, 2, 4], "jobs": 3}"#;
        let Command::Simulate(sim) = parse_command(line).expect("parses") else {
            panic!("simulate");
        };
        assert_eq!(sim.req.wait_states, 1);
        assert_eq!(sim.extra_wait_states, [2, 4]);
        assert_eq!(sim.jobs, 3);
        let points = sim.points();
        assert_eq!(
            points.iter().map(|p| p.wait_states).collect::<Vec<_>>(),
            [1, 2, 4]
        );
        assert!(points.iter().all(|p| p.warm_key() == sim.req.warm_key()));
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(parse_command(r#"{"cmd":"ping"}"#), Ok(Command::Ping));
        assert_eq!(parse_command(r#"{"cmd":"stats"}"#), Ok(Command::Stats));
        assert_eq!(
            parse_command(r#"{"cmd":"shutdown"}"#),
            Ok(Command::Shutdown)
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (line, needle) in [
            ("nonsense", "invalid JSON"),
            ("[1]", "must be a JSON object"),
            (r#"{"cmd":"reboot"}"#, "unknown cmd"),
            (r#"{"protocol":"pci"}"#, "unknown protocol"),
            (r#"{"scale":-1}"#, "'scale'"),
            (
                r#"{"seed":18446744073709551615}"#,
                "'seed' must be an integer in 0..=9007199254740992",
            ),
            (r#"{"wait_states":[]}"#, "non-empty"),
            (r#"{"wait_states":"many"}"#, "'wait_states'"),
        ] {
            let err = parse_command(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
        // The top of the range the message names is itself accepted.
        let Ok(Command::Simulate(sim)) = parse_command(r#"{"seed":9007199254740992}"#) else {
            panic!("2^53 is in range");
        };
        assert_eq!(sim.req.seed, 1 << 53);
    }

    #[test]
    fn responses_are_single_json_lines() {
        let line = simulate_response(
            3,
            CacheOutcome::Hit,
            27537,
            &[PointResult {
                wait_states: 8,
                exec_cycles: 31000,
            }],
            1234,
        );
        let v = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("base_cycles").and_then(Json::as_u64), Some(27537));
        let err = error_response(4, "bad \"thing\"\n");
        let v = crate::json::parse(&err).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("bad \"thing\"\n")
        );
        assert!(!line.contains('\n') && !err.contains('\n'));
    }
}
