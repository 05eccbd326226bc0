//! Answers that do not come from the analyzer, and the check of a
//! scan's findings against them.
//!
//! A finding is keyed by (checker, source function, sink function). The
//! generated subjects seed each bug in a dedicated host function, so a
//! feasible seed must be reported at least once (several dependence paths
//! may reach its sink) and nothing else may be. The hot-sinks programs
//! know the exact number of feasible guards per function.

use fusion_cli::Finding;
use std::collections::BTreeMap;

/// (checker, source function, sink function).
pub type Key = (String, String, String);

/// How many findings a key must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// One or more.
    AtLeastOne,
    /// Exactly this many.
    Exactly(usize),
}

/// The findings a correct scan reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    keys: BTreeMap<Key, Count>,
}

impl Expected {
    /// Requires `count` findings for `key`.
    pub fn add(&mut self, key: Key, count: Count) {
        self.keys.insert(key, count);
    }

    /// Checks `findings` against the answer; the error names the first
    /// few differences.
    pub fn check(&self, findings: &[Finding]) -> Result<(), String> {
        let mut seen: BTreeMap<Key, usize> = BTreeMap::new();
        for f in findings {
            let key = (
                f.checker.clone(),
                f.source_function.clone(),
                f.sink_function.clone(),
            );
            *seen.entry(key).or_default() += 1;
        }
        let mut diffs = Vec::new();
        for (key, &n) in &seen {
            match self.keys.get(key) {
                None => diffs.push(format!("unexpected {key:?} x{n}")),
                Some(Count::Exactly(want)) if *want != n => {
                    diffs.push(format!("{key:?}: {n} findings, want {want}"))
                }
                Some(_) => {}
            }
        }
        for (key, count) in &self.keys {
            if !seen.contains_key(key) && *count != Count::Exactly(0) {
                diffs.push(format!("missed {key:?}"));
            }
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            let more = diffs.len().saturating_sub(3);
            diffs.truncate(3);
            Err(format!("{} (+{more} more)", diffs.join("; ")))
        }
    }
}

/// Findings whose verdict is `undecided` (a solver budget ran out).
pub fn undecided(findings: &[Finding]) -> usize {
    findings.iter().filter(|f| f.verdict == "undecided").count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(checker: &str, src: &str, sink: &str) -> Finding {
        Finding {
            checker: checker.into(),
            source_function: src.into(),
            sink_function: sink.into(),
            verdict: "feasible".into(),
            path_length: 3,
        }
    }

    fn key(c: &str, s: &str) -> Key {
        (c.into(), s.into(), s.into())
    }

    #[test]
    fn at_least_one_accepts_repeats_and_rejects_extras() {
        let mut e = Expected::default();
        e.add(key("null-deref", "seed_null_ok_0"), Count::AtLeastOne);
        let hit = finding("null-deref", "seed_null_ok_0", "seed_null_ok_0");
        assert!(e.check(&[hit.clone(), hit.clone()]).is_ok());
        assert!(e.check(&[]).unwrap_err().contains("missed"));
        let fp = finding("cwe-23", "seed_cwe23_no_0", "seed_cwe23_no_0");
        assert!(e.check(&[hit, fp]).unwrap_err().contains("unexpected"));
    }

    #[test]
    fn exact_counts_must_match() {
        let mut e = Expected::default();
        e.add(key("null-deref", "hot0"), Count::Exactly(2));
        e.add(key("null-deref", "hot1"), Count::Exactly(0));
        let f = finding("null-deref", "hot0", "hot0");
        assert!(e.check(&[f.clone(), f.clone()]).is_ok());
        assert!(e
            .check(std::slice::from_ref(&f))
            .unwrap_err()
            .contains("want 2"));
        let g = finding("null-deref", "hot1", "hot1");
        assert!(e.check(&[f.clone(), f, g]).is_err());
    }

    #[test]
    fn undecided_counts_only_unknown_verdicts() {
        let mut u = finding("null-deref", "f", "f");
        u.verdict = "undecided".into();
        assert_eq!(undecided(&[u, finding("null-deref", "g", "g")]), 1);
    }
}
