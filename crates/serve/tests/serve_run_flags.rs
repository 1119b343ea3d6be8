//! `serve_run` refuses what it does not understand: a flag it no longer
//! has or a value it cannot parse exits 2 instead of starting a server
//! with a configuration the caller did not ask for.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn exit_code(extra: &[&str]) -> Option<i32> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve_run"))
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve_run");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(status) = child.try_wait().expect("poll serve_run") {
            return status.code();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve_run {extra:?} still running after 5 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn unknown_flags_and_malformed_values_exit_2() {
    assert_eq!(exit_code(&["--recorder", "0"]), Some(2), "removed flag");
    assert_eq!(exit_code(&["--workers", "x"]), Some(2), "malformed value");
}
