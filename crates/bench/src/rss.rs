//! Peak-RSS measurement for the size sweep.
//!
//! Linux exposes a process's high-water resident set as `VmHWM` in
//! `/proc/self/status`, and (with `CONFIG_PROC_PAGE_MONITOR`) lets it be
//! reset by writing `5` to `/proc/self/clear_refs`. The sweep resets the
//! peak before each cell and reads it after, giving a true per-cell peak;
//! where the reset is unavailable (non-Linux, locked-down `/proc`) the
//! reading degrades to a monotone process-wide high-water mark — still
//! meaningful because the sweep runs cells smallest-first, so each cell's
//! reading bounds that cell's own peak from above.

/// Current peak RSS in bytes (`VmHWM`), or `None` off Linux / without
/// `/proc`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            // Format: "VmHWM:      1234 kB".
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Attempts to reset the peak-RSS counter; `true` when the write was
/// accepted (subsequent [`peak_rss_bytes`] readings are per-interval).
pub fn reset_peak_rss() -> bool {
    // lint: allow(durable-io-containment) -- procfs control knob, no durable data involved
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the ignored test `name` alone in a child process of this test
    /// binary. `VmHWM` and `clear_refs` are process-wide, and other tests
    /// of this crate reset the peak from concurrent threads.
    fn in_child_process(name: &str) {
        let exe = std::env::current_exe().expect("the test binary's path");
        let out = std::process::Command::new(exe)
            .args([name, "--exact", "--ignored", "--test-threads=1"])
            .output()
            .expect("run an RSS check in a child process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{name} failed in its child process:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn peak_rss_reads_plausibly_on_linux() {
        in_child_process("rss::tests::peak_rss_reads_plausibly_alone");
    }

    #[test]
    fn reset_makes_readings_per_interval_when_supported() {
        in_child_process("rss::tests::reset_makes_readings_per_interval_alone");
    }

    #[test]
    #[ignore = "run alone by `peak_rss_reads_plausibly_on_linux`"]
    fn peak_rss_reads_plausibly_alone() {
        let Some(peak) = peak_rss_bytes() else {
            return; // not a /proc platform; the sweep records null
        };
        // A test process resident set is at least a few hundred KiB and
        // below a TiB — anything else means the parse slipped a unit.
        assert!(peak > 100 * 1024, "peak {peak} implausibly small");
        assert!(peak < 1 << 40, "peak {peak} implausibly large");

        // Growing the heap must raise (or at least not lower) the peak.
        let before = peak_rss_bytes().unwrap();
        let ballast = vec![7u8; 32 << 20];
        std::hint::black_box(&ballast);
        let after = peak_rss_bytes().unwrap();
        assert!(after >= before);
        assert!(
            after - before >= 16 << 20,
            "32 MiB ballast must show up in the peak (before {before}, after {after})"
        );
    }

    #[test]
    #[ignore = "run alone by `reset_makes_readings_per_interval_when_supported`"]
    fn reset_makes_readings_per_interval_alone() {
        if peak_rss_bytes().is_none() {
            return;
        }
        if !reset_peak_rss() {
            return; // reset unsupported — monotone fallback is documented
        }
        // After a reset the peak collapses to (roughly) the current RSS,
        // which must be far below the ballast-driven peak a fresh large
        // allocation then re-establishes.
        let ballast = vec![7u8; 64 << 20];
        std::hint::black_box(&ballast);
        let with_ballast = peak_rss_bytes().unwrap();
        drop(ballast);
        assert!(reset_peak_rss());
        let after_reset = peak_rss_bytes().unwrap();
        assert!(
            after_reset < with_ballast,
            "reset must drop the peak below the ballast high-water mark \
             ({after_reset} vs {with_ballast})"
        );
    }
}
