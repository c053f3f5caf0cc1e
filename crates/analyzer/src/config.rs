//! Loader for `analyzer.toml` — the checked-in policy the rules run
//! against (lock order, blocking and atomics roles).
//!
//! The file is a deliberately tiny TOML subset so the analyzer stays
//! dependency-free: `[dotted.section]` headers, `key = ["a", "b"]` lists
//! and `#` comments. Anything outside that subset is a hard error — the
//! config is part of the gate, so a silently ignored line would be a
//! silently disabled check.

use std::collections::BTreeMap;

/// Parsed analyzer policy.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Lock classes in acquisition order (outermost first). Each entry is
    /// `(class name, receiver identifiers that acquire it)`.
    pub lock_order: Vec<(String, Vec<String>)>,
    /// Method/function names too generic to resolve as call-graph edges
    /// (std container and iterator idiom: `get`, `insert`, `lock`, …).
    /// Calls to these names never create edges; the interprocedural rules
    /// catch the underlying effects lexically instead.
    pub ambient_methods: Vec<String>,
    /// Crates left out of the call graph entirely (perf fixtures whose
    /// same-name defs would pollute name-based resolution).
    pub callgraph_exclude: Vec<String>,
    /// Lock classes that must not be held across blocking operations.
    pub blocking_classes: Vec<String>,
    /// Receiver identifiers that denote the KV store.
    pub blocking_store_receivers: Vec<String>,
    /// Store methods that hit disk (`kv.get(...)` etc.).
    pub blocking_store_methods: Vec<String>,
    /// Free/method call names that block regardless of receiver
    /// (socket reads, `thread::sleep`, condvar waits).
    pub blocking_calls: Vec<String>,
    /// Crates whose non-test atomics must be declared in a role table.
    pub atomics_crates: Vec<String>,
    /// Atomic receiver name → role (`counter`, `publish`, `gate`).
    pub atomics_roles: BTreeMap<String, AtomicRole>,
}

/// Declared memory-ordering discipline for one atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicRole {
    /// Pure statistic: every access may be `Relaxed` (and nothing stronger
    /// is required, though Acquire/Release are tolerated on a counter that
    /// doubles as a drain signal — only `SeqCst` is rejected).
    Counter,
    /// Publication (seqlock generation, length watermark): loads must be
    /// `Acquire`, stores `Release`, RMWs `AcqRel`.
    Publish,
    /// Boolean latch (`rebuilding`, shutdown flags): loads `Acquire`,
    /// stores `Release`, RMWs `Acquire` or `AcqRel`.
    Gate,
}

impl AtomicRole {
    pub fn name(self) -> &'static str {
        match self {
            AtomicRole::Counter => "counter",
            AtomicRole::Publish => "publish",
            AtomicRole::Gate => "gate",
        }
    }
}

/// A config-file syntax or consistency error.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analyzer.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError(msg.into()))
}

/// Strips surrounding quotes from a TOML string value.
fn unquote(v: &str, line_no: usize) -> Result<String, ConfigError> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        err(format!(
            "line {line_no}: expected a quoted string, got `{v}`"
        ))
    }
}

/// Parses `["a", "b"]` into its elements.
fn parse_list(v: &str, line_no: usize) -> Result<Vec<String>, ConfigError> {
    let v = v.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return err(format!("line {line_no}: expected a [list]"));
    }
    let inner = v[1..v.len() - 1].trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| unquote(s, line_no))
        .collect()
}

/// Parses the config text.
pub fn parse(src: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut section = String::new();
    // Accumulates [locks.class.<name>] receiver lists until the order list
    // stitches them together.
    let mut classes: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let strip = |raw: &str| -> String {
        // `#` only starts a comment outside strings; our subset never
        // puts `#` inside one, so a simple cut is exact.
        match raw.find('#') {
            Some(p) => raw[..p].trim().to_string(),
            None => raw.trim().to_string(),
        }
    };
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut idx = 0usize;
    while idx < raw_lines.len() {
        let line_no = idx + 1;
        let mut line = strip(raw_lines[idx]);
        idx += 1;
        if line.is_empty() {
            continue;
        }
        // A list may span lines: keep consuming until brackets balance.
        if line.contains('[')
            && line.contains('=')
            && line.matches('[').count() > line.matches(']').count()
        {
            while idx < raw_lines.len() && line.matches('[').count() > line.matches(']').count() {
                line.push(' ');
                line.push_str(&strip(raw_lines[idx]));
                idx += 1;
            }
        }
        let line = line.as_str();
        if line.starts_with('[') {
            if !line.ends_with(']') {
                return err(format!("line {line_no}: unterminated section header"));
            }
            section = line[1..line.len() - 1].trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(format!("line {line_no}: expected `key = value`"));
        };
        let key = key.trim();
        let value = value.trim();
        match section.as_str() {
            "locks" if key == "order" => order = parse_list(value, line_no)?,
            s if s.starts_with("locks.class.") => {
                let class = s["locks.class.".len()..].to_string();
                if key != "receivers" {
                    return err(format!("line {line_no}: unknown lock-class key `{key}`"));
                }
                classes.insert(class, parse_list(value, line_no)?);
            }
            "callgraph" if key == "ambient_methods" => {
                cfg.ambient_methods = parse_list(value, line_no)?;
            }
            "callgraph" if key == "exclude_crates" => {
                cfg.callgraph_exclude = parse_list(value, line_no)?;
            }
            "blocking" => match key {
                "classes" => cfg.blocking_classes = parse_list(value, line_no)?,
                "store_receivers" => cfg.blocking_store_receivers = parse_list(value, line_no)?,
                "store_methods" => cfg.blocking_store_methods = parse_list(value, line_no)?,
                "calls" => cfg.blocking_calls = parse_list(value, line_no)?,
                _ => return err(format!("line {line_no}: unknown [blocking] key `{key}`")),
            },
            "atomics" if key == "crates" => {
                cfg.atomics_crates = parse_list(value, line_no)?;
            }
            s if s.starts_with("atomics.role.") => {
                let role = match &s["atomics.role.".len()..] {
                    "counter" => AtomicRole::Counter,
                    "publish" => AtomicRole::Publish,
                    "gate" => AtomicRole::Gate,
                    other => {
                        return err(format!("line {line_no}: unknown atomic role `{other}`"));
                    }
                };
                if key != "receivers" {
                    return err(format!("line {line_no}: unknown atomic-role key `{key}`"));
                }
                for recv in parse_list(value, line_no)? {
                    if let Some(prev) = cfg.atomics_roles.insert(recv.clone(), role) {
                        return err(format!(
                            "line {line_no}: atomic `{recv}` declared twice \
                             (first as {})",
                            prev.name()
                        ));
                    }
                }
            }
            _ => {
                return err(format!(
                    "line {line_no}: unknown entry `{key}` in section `[{section}]`"
                ));
            }
        }
    }
    for class in order {
        let Some(receivers) = classes.remove(&class) else {
            return err(format!(
                "lock order names class `{class}` but [locks.class.{class}] is missing"
            ));
        };
        cfg.lock_order.push((class, receivers));
    }
    if let Some(orphan) = classes.keys().next() {
        return err(format!(
            "[locks.class.{orphan}] is not listed in the lock order"
        ));
    }
    for class in &cfg.blocking_classes {
        if !cfg.lock_order.iter().any(|(c, _)| c == class) {
            return err(format!(
                "[blocking] names class `{class}` but it is not in the lock order"
            ));
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[locks]
order = ["roles", "ingest"]

[locks.class.roles]
receivers = ["roles"]

[locks.class.ingest]
receivers = ["ingest", "ingest_for"]
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = parse(SAMPLE).unwrap();
        assert_eq!(
            cfg.lock_order,
            vec![
                ("roles".into(), vec!["roles".into()]),
                ("ingest".into(), vec!["ingest".into(), "ingest_for".into()]),
            ]
        );
    }

    #[test]
    fn unknown_keys_are_hard_errors() {
        assert!(parse("[locks]\nordr = [\"a\"]").is_err());
        assert!(parse("[mystery]\nx = \"y\"").is_err());
    }

    #[test]
    fn order_and_classes_must_agree() {
        let missing = "[locks]\norder = [\"a\"]";
        assert!(parse(missing).is_err());
        let orphan = "[locks.class.b]\nreceivers = [\"b\"]";
        assert!(parse(orphan).is_err());
    }

    const CONCURRENCY: &str = r#"
[locks]
order = ["registry", "stripe"]

[locks.class.registry]
receivers = ["registry"]

[locks.class.stripe]
receivers = ["stripe"]

[callgraph]
ambient_methods = ["lock", "insert"]

[blocking]
classes = ["registry", "stripe"]
store_receivers = ["kv"]
store_methods = ["get", "put"]
calls = ["sleep"]

[atomics]
crates = ["index"]

[atomics.role.counter]
receivers = ["gets", "puts"]

[atomics.role.publish]
receivers = ["cache_gen"]

[atomics.role.gate]
receivers = ["rebuilding"]
"#;

    #[test]
    fn parses_concurrency_sections() {
        let cfg = parse(CONCURRENCY).unwrap();
        assert_eq!(cfg.ambient_methods, vec!["lock", "insert"]);
        assert_eq!(cfg.blocking_classes, vec!["registry", "stripe"]);
        assert_eq!(cfg.blocking_store_receivers, vec!["kv"]);
        assert_eq!(cfg.blocking_store_methods, vec!["get", "put"]);
        assert_eq!(cfg.blocking_calls, vec!["sleep"]);
        assert_eq!(cfg.atomics_crates, vec!["index"]);
        assert_eq!(cfg.atomics_roles["gets"], AtomicRole::Counter);
        assert_eq!(cfg.atomics_roles["cache_gen"], AtomicRole::Publish);
        assert_eq!(cfg.atomics_roles["rebuilding"], AtomicRole::Gate);
    }

    #[test]
    fn blocking_class_must_exist_in_lock_order() {
        let bad = "[locks]\norder = []\n[blocking]\nclasses = [\"registry\"]";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn atomic_declared_in_two_roles_rejected() {
        let dup = "[atomics.role.counter]\nreceivers = [\"x\"]\n\
                   [atomics.role.gate]\nreceivers = [\"x\"]";
        assert!(parse(dup).is_err());
    }

    #[test]
    fn unknown_atomic_role_rejected() {
        assert!(parse("[atomics.role.mystic]\nreceivers = [\"x\"]").is_err());
    }
}
