//! End-to-end tests of `--cache` files across key generations and
//! encodings: a file written under another header is attributed on
//! stderr and replaced, never loaded as a silent total miss; the default
//! encoding is v2, and a v1 file is converted to it once.

use std::path::PathBuf;
use std::process::{Command, Output};

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");

/// A per-process temp directory (concurrent `cargo test` runs share the
/// OS temp dir; the pid keeps them apart).
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memstream-cache-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run(args: &[&str]) -> Output {
    let output = Command::new(HARNESS)
        .args(args)
        .output()
        .expect("harness spawns");
    assert!(
        output.status.success(),
        "harness {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// One run over a first-generation file (bare `v1`/`v2` header,
/// Debug-rendered keys) prints one attributed stderr line, reproduces the
/// cold stdout, and leaves exactly the file a cold run writes — no old
/// key carried along.
#[test]
fn an_old_generation_cache_is_attributed_and_replaced() {
    let stale = temp_path("stale.cache");
    let stale_str = stale.to_str().expect("utf-8 temp path");
    let old_line = "mems:MemsDevice { name: \"old\" }|w=Ratio { fraction: 0.4 }\tU\told";
    for (format, header) in [
        ("v1", "memstream-grid-cache v1"),
        ("v2", "memstream-grid-cache v2"),
    ] {
        let grid = |path: &str| {
            run(&[
                "grid",
                "--rates",
                "5",
                "--cache",
                path,
                "--cache-format",
                format,
            ])
        };
        let fresh = temp_path(&format!("fresh-{format}.cache"));
        let _ = std::fs::remove_file(&fresh);
        let reference = grid(fresh.to_str().expect("utf-8 temp path")).stdout;
        let fresh_bytes = std::fs::read(&fresh).expect("cold run writes the cache");

        std::fs::write(&stale, format!("{header}\n{old_line}\n")).unwrap();
        let output = grid(stale_str);
        assert_eq!(output.stdout, reference);
        let stderr = String::from_utf8_lossy(&output.stderr);
        let attributed: Vec<&str> = stderr
            .lines()
            .filter(|l| l.contains("found header"))
            .collect();
        assert_eq!(attributed.len(), 1, "{stderr}");
        let expected = format!("{header} k2");
        assert!(
            attributed[0].contains(stale_str)
                && attributed[0].contains(&format!("`{header}`"))
                && attributed[0].contains(&format!("`{expected}`")),
            "{}",
            attributed[0]
        );
        assert!(stderr.contains("cache: 0 hits"), "starts cold:\n{stderr}");
        assert_eq!(
            std::fs::read(&stale).unwrap(),
            fresh_bytes,
            "exactly the cold run's entries, no old key carried along"
        );

        // The rewritten file is current: the next run is fully warm.
        let warm = grid(stale_str);
        assert_eq!(warm.stdout, reference);
        let stderr = String::from_utf8_lossy(&warm.stderr);
        assert!(!stderr.contains("found header"), "{stderr}");
        assert!(stderr.contains(" 0 misses"), "{stderr}");
        std::fs::remove_file(fresh).unwrap();
    }
    std::fs::remove_file(stale).unwrap();
}

/// The `count` column of the `--stats` row for span `name`.
fn span_count(stderr: &str, name: &str) -> u64 {
    stderr
        .lines()
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some(name)).then(|| fields.next())?
        })
        .and_then(|count| count.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` row in:\n{stderr}"))
}

/// A default `--cache` run writes the binary v2 encoding; a v1 file run
/// under the default is rewritten as v2 once, and from then on warm runs
/// leave the file alone.
#[test]
fn the_default_encoding_is_v2_and_a_v1_file_converts_once() {
    let fresh = temp_path("default-fresh.cache");
    let v1 = temp_path("default-from-v1.cache");
    for path in [&fresh, &v1] {
        let _ = std::fs::remove_file(path);
    }
    let (fresh_str, v1_str) = (
        fresh.to_str().expect("utf-8 temp path"),
        v1.to_str().expect("utf-8 temp path"),
    );
    let reference = run(&["grid", "--rates", "5", "--cache", fresh_str]).stdout;
    let v2_bytes = std::fs::read(&fresh).expect("cold run writes the cache");
    assert!(v2_bytes.starts_with(b"memstream-grid-cache v2 k2\n"));

    run(&[
        "grid",
        "--rates",
        "5",
        "--cache",
        v1_str,
        "--cache-format",
        "v1",
    ]);
    assert!(std::fs::read(&v1)
        .unwrap()
        .starts_with(b"memstream-grid-cache v1 k2\n"));

    // Warm over the v1 file under the default: all hits, one save, and
    // exactly the bytes a cold default run writes.
    let converted = run(&["grid", "--rates", "5", "--cache", v1_str, "--stats"]);
    assert_eq!(converted.stdout, reference);
    let stderr = String::from_utf8_lossy(&converted.stderr);
    assert!(stderr.contains(" 0 misses"), "{stderr}");
    assert_eq!(span_count(&stderr, "cache.save"), 1, "{stderr}");
    assert_eq!(std::fs::read(&v1).unwrap(), v2_bytes);

    // Converted once: the next warm run saves nothing.
    let warm = run(&["grid", "--rates", "5", "--cache", v1_str, "--stats"]);
    assert_eq!(warm.stdout, reference);
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("not rewritten"), "{stderr}");
    assert_eq!(span_count(&stderr, "cache.save"), 0, "{stderr}");
    assert_eq!(std::fs::read(&v1).unwrap(), v2_bytes, "file untouched");
    for path in [fresh, v1] {
        std::fs::remove_file(path).unwrap();
    }
}
