//! `probe` must end quietly when its reader goes away: `probe GCD spec 5
//! | head -0` used to panic with "failed printing to stdout: Broken
//! pipe".

use std::process::{Command, Stdio};

#[test]
fn probe_exits_cleanly_on_a_closed_stdout() {
    // Close the read end before the probe starts, so its first write
    // fails with EPIPE.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(["GCD", "spec", "5"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run probe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "probe panicked:\n{stderr}");
    assert!(
        out.status.success(),
        "probe failed: {:?}\n{stderr}",
        out.status
    );
}
