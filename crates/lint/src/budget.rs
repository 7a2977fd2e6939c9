//! The grandfathered-violation budget and its ratchet.
//!
//! `tests/golden/lint_budget.json` records, per `(rule, file)`, how many
//! live findings are tolerated. The gate fails when any count *exceeds*
//! its budget, so counts can only ratchet downward over time; when a fix
//! drops a count below budget, `scripts/update-lint-budget.sh` rewrites
//! the file with the new (smaller) numbers. The format is plain JSON:
//!
//! ```json
//! {
//!   "version": 1,
//!   "rules": {
//!     "no-bare-unwrap": { "crates/compress/src/lz4.rs": 2 }
//!   }
//! }
//! ```
//!
//! Parsing goes through the workspace's one JSON module, [`ts_obs::json`];
//! the writer keeps this file's own layout and shares its escaper.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use ts_obs::json::{self, esc, Value};

use crate::Finding;

/// Per-(rule, file) tolerated live-finding counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// `(rule name, repo-relative path)` → tolerated count.
    pub entries: BTreeMap<(String, String), u64>,
}

impl Budget {
    /// Tolerated count for `(rule, path)`; absent entries tolerate zero.
    pub fn get(&self, rule: &str, path: &str) -> u64 {
        self.entries
            .get(&(rule.to_string(), path.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Set the tolerated count (0 removes the entry).
    pub fn set(&mut self, rule: &str, path: &str, count: u64) {
        let key = (rule.to_string(), path.to_string());
        if count == 0 {
            self.entries.remove(&key);
        } else {
            self.entries.insert(key, count);
        }
    }

    /// Build the budget that exactly covers the live findings — what
    /// `--write-budget` / `scripts/update-lint-budget.sh` emits.
    pub fn from_findings(findings: &[Finding]) -> Budget {
        let mut b = Budget::default();
        for ((rule, path), n) in crate::live_counts(findings) {
            b.set(&rule, &path, n);
        }
        b
    }

    /// Total tolerated findings across all entries.
    pub fn total(&self) -> u64 {
        self.entries.values().sum()
    }

    /// Serialize to the checked-in JSON format (sorted, stable).
    pub fn to_json(&self) -> String {
        let mut by_rule: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for ((rule, path), &n) in &self.entries {
            by_rule.entry(rule).or_default().push((path, n));
        }
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"version\": 1,\n  \"rules\": {");
        let mut first_rule = true;
        for (rule, files) in &by_rule {
            if !first_rule {
                out.push(',');
            }
            first_rule = false;
            let _ = write!(out, "\n    \"{}\": {{", esc(rule));
            let mut first = true;
            for (path, n) in files {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n      \"{}\": {n}", esc(path));
            }
            out.push_str("\n    }");
        }
        if by_rule.is_empty() {
            out.push('}');
        } else {
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse the checked-in JSON format.
    pub fn parse(text: &str) -> Result<Budget, String> {
        let top = json::parse(text)?;
        if !matches!(top, Value::Object(_)) {
            return Err("budget: top level must be an object".into());
        }
        let mut b = Budget::default();
        let Some(rules) = top.get("rules") else {
            return Ok(b);
        };
        let Value::Object(rules) = rules else {
            return Err("budget: \"rules\" must be an object".into());
        };
        for (rule, files) in rules {
            let Value::Object(files) = files else {
                return Err(format!("budget: rule {rule:?} must map files to counts"));
            };
            for (path, n) in files {
                let n = n.as_u64().ok_or_else(|| {
                    format!("budget: {rule}/{path} count must be a non-negative integer")
                })?;
                b.set(rule, path, n);
            }
        }
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_round_trips() {
        let mut b = Budget::default();
        b.set("no-bare-unwrap", "crates/a/src/lib.rs", 3);
        b.set("float-ordering", "crates/b/src/x.rs", 1);
        let json = b.to_json();
        let back = Budget::parse(&json).expect("own output parses");
        assert_eq!(b, back);
        assert_eq!(back.total(), 4);
    }

    #[test]
    fn empty_budget_round_trips() {
        let b = Budget::default();
        let back = Budget::parse(&b.to_json()).expect("empty budget parses");
        assert_eq!(b, back);
    }

    #[test]
    fn zero_counts_are_dropped() {
        let mut b = Budget::default();
        b.set("no-bare-unwrap", "a.rs", 2);
        b.set("no-bare-unwrap", "a.rs", 0);
        assert!(b.entries.is_empty());
    }

    #[test]
    fn get_defaults_to_zero() {
        let b = Budget::default();
        assert_eq!(b.get("no-bare-unwrap", "anything.rs"), 0);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Budget::parse("[]").is_err());
        assert!(Budget::parse("{\"rules\": 3}").is_err());
        assert!(Budget::parse("{\"rules\": {\"r\": {\"f\": -1}}}").is_err());
        assert!(Budget::parse("{\"rules\": {\"r\": {\"f\": 1.5}}}").is_err());
    }
}
