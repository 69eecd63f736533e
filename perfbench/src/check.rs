//! Output fingerprints, the stored references and the failure tally.

/// Reference fingerprints of the default seed and one held-out seed, one
/// `<workload> <seed> <fingerprint>` line each.
const REFERENCES: &str = include_str!("../references.txt");

/// 64-bit FNV-1a over a canonical text form of a workload's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The empty fingerprint, extended with [`Fingerprint::add`].
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Fingerprint of one text.
    pub fn of(text: &str) -> Fingerprint {
        let mut f = Fingerprint::new();
        f.add(text);
        f
    }

    /// Folds `text` (and a separator) into the fingerprint.
    pub fn add(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Lower-case hex form, as stored in the references.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The stored reference for `(workload, seed)`, if there is one.
pub fn reference(workload: &str, seed: u64) -> Option<String> {
    REFERENCES.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(w), Some(s), Some(fp)) if w == workload && s.parse() == Ok(seed) => {
                Some(fp.to_string())
            }
            _ => None,
        }
    })
}

/// Operations attempted and failed in one run, and whether every output
/// check held.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Operations attempted (SDEs handed in, queries, runs, checks).
    pub attempted: u64,
    /// Operations that failed or degraded.
    pub failed: u64,
    /// False once any output check failed.
    pub correct: bool,
    /// What failed, for the human-readable report.
    pub failures: Vec<String>,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally { attempted: 0, failed: 0, correct: true, failures: Vec::new() }
    }
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations (already counted as attempted).
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{n} × {}", what.into()));
        }
    }

    /// Counts one output check, failing the run's correctness if it does
    /// not hold.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempt(1);
        if !ok {
            self.correct = false;
            self.fail(1, what);
        }
    }

    /// Checks that every repetition's fingerprint equals the first, and the
    /// first equals the stored reference when `(workload, seed)` has one.
    /// Returns the human-readable verdict.
    pub fn check_fingerprints(&mut self, workload: &str, seed: u64, fps: &[Fingerprint]) -> String {
        let Some(&first) = fps.first() else {
            self.check(false, "no output to fingerprint");
            return "no output".to_string();
        };
        for (rep, fp) in fps.iter().enumerate().skip(1) {
            self.check(*fp == first, format!("repetition {rep} output differs from repetition 0"));
        }
        match reference(workload, seed) {
            Some(expected) => {
                let ok = expected == first.hex();
                self.check(ok, format!("output {} differs from reference {expected}", first.hex()));
                format!(
                    "fingerprint {} ({} against the stored reference)",
                    first.hex(),
                    if ok { "matches" } else { "MISMATCH" }
                )
            }
            None => format!(
                "fingerprint {} (no stored reference for seed {seed}; repetitions agree: {})",
                first.hex(),
                fps.iter().all(|f| *f == first)
            ),
        }
    }

    /// failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        assert_eq!(Fingerprint::of("a").hex(), Fingerprint::of("a").hex());
        let mut ab = Fingerprint::new();
        ab.add("a");
        ab.add("b");
        let mut ba = Fingerprint::new();
        ba.add("b");
        ba.add("a");
        assert_ne!(ab, ba);
        // FNV-1a of "a\n".
        assert_eq!(Fingerprint::of("a").hex(), "089bdc07b544e7b2");
    }

    #[test]
    fn mismatching_repetitions_fail_the_run() {
        let mut tally = Tally::default();
        tally.check_fingerprints("none", 1, &[Fingerprint::of("x"), Fingerprint::of("y")]);
        assert!(!tally.correct);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn every_reference_line_parses() {
        for line in REFERENCES.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "bad reference line `{line}`");
            assert!(parts[1].parse::<u64>().is_ok());
            assert_eq!(parts[2].len(), 16);
        }
    }
}
