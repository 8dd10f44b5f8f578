//! Unified thread budget for every parallel subsystem.
//!
//! Two layers spend host parallelism: sweep workers
//! (`scenario/src/parallel.rs`, one trial per worker) and the sharded
//! world's band rebuild workers. They must not each independently claim
//! every core, so both call [`thread_budget`] and one environment variable
//! bounds the process-wide parallelism regardless of which layer spends it.
//!
//! Precedence (documented in the README):
//!
//! 1. `BLACKDP_THREADS`, if set and parseable as an integer ≥ 1 — clamped
//!    to the host's [`std::thread::available_parallelism`];
//! 2. otherwise [`std::thread::available_parallelism`];
//! 3. otherwise 1.
//!
//! Determinism note: the budget only ever controls **how many workers** chew
//! through deterministically ordered work lists (sweep trials, shard
//! bands); results are merged in fixed order, so the budget never affects
//! output bytes — only wall-clock time.

/// Maximum worker threads any parallel subsystem may use.
///
/// Reads `BLACKDP_THREADS`, falling back to the host's available
/// parallelism. A malformed or `0`-valued variable is still ignored, but
/// prints a one-time warning to stderr: before, a deployment typo
/// (`BLACKDP_THREADS=al` or `=0`) silently became an all-cores grab. A
/// value *above* the host's available parallelism is clamped down to it,
/// also with a one-time warning — oversubscribing cores never helps the
/// deterministic work lists this budget governs. Never returns 0.
pub fn thread_budget() -> usize {
    let cap = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("BLACKDP_THREADS") {
        Ok(raw) => {
            let (budget, warning) = parse_budget(&raw, cap);
            if let Some(msg) = warning {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| eprintln!("{msg}"));
            }
            budget
        }
        Err(_) => cap,
    }
}

/// Parses a raw `BLACKDP_THREADS` value against the host parallelism `cap`.
/// Returns the budget plus a warning message when the value was malformed,
/// below 1, or clamped down to `cap`.
///
/// Split out of [`thread_budget`] so tests can cover the warning paths
/// without racing on process-global environment state or capturing stderr.
fn parse_budget(raw: &str, cap: usize) -> (usize, Option<String>) {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => {
            if n > cap {
                (
                    cap,
                    Some(format!(
                        "warning: BLACKDP_THREADS={n} exceeds the host's available \
                         parallelism; clamping to {cap} thread(s)"
                    )),
                )
            } else {
                (n, None)
            }
        }
        Ok(_) => (
            cap,
            Some(format!(
                "warning: BLACKDP_THREADS=0 is not a valid thread budget; \
                 ignoring it and using {cap} thread(s)"
            )),
        ),
        Err(_) => (
            cap,
            Some(format!(
                "warning: BLACKDP_THREADS={raw:?} is not an integer >= 1; \
                 ignoring it and using {cap} thread(s)"
            )),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_at_least_one() {
        // Whatever the environment says, the budget must be usable as a
        // worker count.
        assert!(thread_budget() >= 1);
    }

    #[test]
    fn valid_values_pass_through_without_warning() {
        assert_eq!(parse_budget("4", 99), (4, None));
        assert_eq!(parse_budget("  1 ", 99), (1, None));
    }

    #[test]
    fn malformed_values_warn_and_fall_back() {
        // Regression: these used to be swallowed silently, so a deployment
        // typo became an invisible all-cores grab.
        let (budget, warning) = parse_budget("all-of-them", 6);
        assert_eq!(budget, 6);
        let msg = warning.expect("malformed value must produce a warning");
        assert!(msg.contains("all-of-them"), "warning names the bad value: {msg}");
        assert!(msg.contains('6'), "warning names the fallback: {msg}");

        let (budget, warning) = parse_budget("-3", 2);
        assert_eq!(budget, 2);
        assert!(warning.is_some());
    }

    #[test]
    fn zero_warns_and_falls_back() {
        let (budget, warning) = parse_budget("0", 8);
        assert_eq!(budget, 8);
        let msg = warning.expect("zero must produce a warning");
        assert!(msg.contains("BLACKDP_THREADS=0"), "{msg}");
    }

    #[test]
    fn oversubscription_clamps_to_the_host_cap() {
        // A budget above the host's available parallelism is clamped: the
        // deterministic work lists it governs gain nothing from
        // oversubscribed cores.
        let (budget, warning) = parse_budget("64", 4);
        assert_eq!(budget, 4);
        let msg = warning.expect("clamping must produce a warning");
        assert!(msg.contains("64"), "warning names the requested value: {msg}");
        assert!(msg.contains("clamping to 4"), "{msg}");

        // At or below the cap passes through untouched.
        assert_eq!(parse_budget("4", 4), (4, None));
    }
}
