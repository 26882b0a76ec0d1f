//! `expts` refuses an unknown subcommand, a flag its subcommand does
//! not take, or a malformed flag value, before it runs anything, so a
//! typo or `--help` cannot overwrite a committed `BENCH_*.json`.

use std::path::Path;
use std::process::Command;

#[test]
fn rejected_flags_exit_2_and_write_nothing() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("expts_args");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for args in [
        &["topo", "--quick", "--help"][..],
        &["topo", "--baseline", "BENCH_scale.json"],
        &["faults", "--quick", "--nodes", "8,x"],
        &["csdx", "--workloads", "2O"],
        &["faults", "--quick", "--nodes", "7"],
        // A retired subcommand is unknown, and exits 2 as well.
        &["hotpath"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_expts"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run expts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: expts") || stderr.contains("known:"),
            "{args:?}: {stderr}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(written.is_empty(), "a rejected run wrote {written:?}");
}
