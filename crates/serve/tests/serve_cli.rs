//! End-to-end runs of the `serve` binary on sizes it cannot run with:
//! every one is a usage error (exit 2, naming the flag) caught before
//! the engine, batcher or HTTP pool is built — never a panic.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_serve");

#[test]
fn bad_sizes_are_usage_errors_naming_the_flag() {
    for (flag, value) in [
        ("--nodes", "0"),
        ("--dim", "0"),
        ("--classes", "0"),
        ("--avg-degree", "-3"),
        ("--avg-degree", "nan"),
        ("--avg-degree", "inf"),
        ("--max-batch", "0"),
        ("--queue-depth", "0"),
        ("--workers", "0"),
        ("--shards", "0"),
    ] {
        let output = Command::new(BIN)
            .args([flag, value, "--port", "0"])
            .output()
            .expect("run serve");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}
