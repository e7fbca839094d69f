//! End-to-end tests of the `xq` command-line binary.

use std::io::Write;
use std::process::Command;

fn xq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xq"))
}

fn write_doc(name: &str, xml: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("exrquy-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(xml.as_bytes()).unwrap();
    path
}

#[test]
fn runs_a_query_over_a_file() {
    let doc = write_doc("cli1.xml", "<r><a>1</a><a>2</a></r>");
    let out = xq()
        .arg("--doc")
        .arg(format!("d.xml={}", doc.display()))
        .arg(r#"fn:sum(doc("d.xml")//a)"#)
        .output()
        .expect("xq runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

#[test]
fn explain_prints_a_plan() {
    let doc = write_doc("cli2.xml", "<r/>");
    let out = xq()
        .arg("--doc")
        .arg(format!("d.xml={}", doc.display()))
        .arg("--explain")
        .arg("--unordered")
        .arg(r#"fn:count(doc("d.xml")//x)"#)
        .output()
        .expect("xq runs");
    assert!(out.status.success());
    let plan = String::from_utf8_lossy(&out.stdout);
    assert!(plan.contains("serialize"), "{plan}");
    assert!(plan.contains("⬡"), "{plan}");
    // One table for the physical program: a row per slot carrying the
    // estimate, the run's actual row count and its wall time …
    assert_eq!(plan.matches("-- physical program").count(), 1, "{plan}");
    let header = plan
        .lines()
        .find(|l| l.trim_start().starts_with("slot"))
        .unwrap_or_else(|| panic!("no slot table header in {plan}"));
    for column in ["operator", "estimated", "actual", "err", "ms"] {
        assert!(header.contains(column), "{header}");
    }
    let root = plan
        .lines()
        .find(|l| l.contains("serialize @") && l.trim_start().starts_with('s'))
        .unwrap_or_else(|| panic!("no root slot row in {plan}"));
    // … slot, operator, operand slot, estimated, actual (one count
    // item), err, ms.
    let cells: Vec<&str> = root.split_whitespace().collect();
    assert_eq!(cells.len(), 8, "{root}");
    assert_eq!(cells[5], "1", "{root}");
    assert!(cells[7].parse::<f64>().is_ok(), "{root}");
    // … and the counters as footer lines, each exactly once.
    for footer in ["fusion: ", "cost: ", "plan cache: "] {
        assert_eq!(plan.matches(footer).count(), 1, "{footer} in {plan}");
    }
}

#[test]
fn explain_shows_fused_chains_unless_scalar() {
    let doc = write_doc("cli2b.xml", "<r><x>1</x><x>2</x></r>");
    let explain = |extra: &[&str]| {
        let out = xq()
            .arg("--doc")
            .arg(format!("d.xml={}", doc.display()))
            .arg("--explain")
            .args(extra)
            .arg(r#"for $x in doc("d.xml")//x where $x > 1 return $x"#)
            .output()
            .expect("xq runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let vectorized = explain(&[]);
    assert!(vectorized.contains("  fused @"), "{vectorized}");
    assert!(!vectorized.contains(" 0 fused chain(s)"), "{vectorized}");
    // The reference arm runs the unfused program: no chain rows.
    let scalar = explain(&["--scalar"]);
    assert!(!scalar.contains("  fused @"), "{scalar}");
    assert!(scalar.contains(" 0 fused chain(s)"), "{scalar}");
}

/// `--threads` survives a preset that follows it, and `--explain` shows
/// the scheduler at work: two independent branches run in one region.
#[test]
fn threads_survive_a_later_preset_and_explain_shows_the_scheduler() {
    let doc = write_doc("cli2c.xml", "<r><a>1</a><b>2</b><a>3</a></r>");
    let explain = |threads: &str| {
        let out = xq()
            .arg("--doc")
            .arg(format!("d.xml={}", doc.display()))
            .args(["--threads", threads, "--baseline", "--explain"])
            .arg(r#"(fn:count(doc("d.xml")//a), fn:sum(doc("d.xml")//b))"#)
            .output()
            .expect("xq runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let parallel = explain("2");
    let regions: u64 = parallel
        .lines()
        .find_map(|l| l.strip_prefix("scheduler: "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no scheduler footer in {parallel}"));
    assert!(regions >= 1, "{parallel}");
    // A serial run never reaches the scheduler.
    assert!(!explain("1").contains("scheduler: "));
}

#[test]
fn reports_errors_with_nonzero_exit() {
    let out = xq().arg("$unbound").output().expect("xq runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unbound variable"));

    let out = xq().output().expect("xq runs");
    assert_eq!(out.status.code(), Some(64)); // usage (EX_USAGE)
}

#[test]
fn exit_codes_distinguish_error_classes() {
    // Static error (unbound variable) → 1, one line with the code.
    let out = xq().arg("$unbound").output().expect("xq runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[XPST0008]"), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");

    // Syntax error → also static → 1.
    let out = xq().arg("1 +").output().expect("xq runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[XPST0003]"));

    // Dynamic error (division by zero) → 2.
    let out = xq().arg("1 idiv 0").output().expect("xq runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[FOAR0001]"));

    // Budget exceeded → 3.
    let out = xq()
        .args(["--max-rows", "100"])
        .arg("fn:count((1 to 100000000))")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[EXRQ0001]"));

    // Timeout → 3 as well.
    let out = xq()
        .args(["--timeout", "0"])
        .arg("(1, 2, 3)")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[EXRQ0001]"));

    // I/O error (unreadable document) → 4.
    let out = xq()
        .args(["--doc", "d.xml=/nonexistent/nope.xml"])
        .arg("1")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn deadline_ms_sheds_with_exrq0007_and_exit_3() {
    // A zero deadline has always already passed: the run is shed with
    // the typed deadline code before evaluation starts.
    let out = xq()
        .args(["--deadline-ms", "0"])
        .arg("(1, 2, 3)")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[EXRQ0007]"));

    // Mid-execution expiry trips the hard deadline inside the engine —
    // same code, same exit class.
    let out = xq()
        .args(["--deadline-ms", "20"])
        .arg("fn:count((1 to 100000000))")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[EXRQ0007]"));

    // A generous deadline does not disturb a normal run.
    let out = xq()
        .args(["--deadline-ms", "60000"])
        .arg("1 + 1")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2");
}

#[test]
fn quiet_suppresses_results_but_not_errors() {
    let out = xq().arg("--quiet").arg("1 + 1").output().expect("xq runs");
    assert!(out.status.success());
    assert!(out.stdout.is_empty());

    let out = xq()
        .arg("--quiet")
        .arg("1 idiv 0")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!out.stderr.is_empty());
}

#[test]
fn budget_flags_accept_valid_queries() {
    let doc = write_doc("cli4.xml", "<r><a>1</a><a>2</a></r>");
    let out = xq()
        .arg("--doc")
        .arg(format!("d.xml={}", doc.display()))
        .args(["--timeout", "30", "--max-rows", "100000"])
        .args(["--max-nodes", "10000", "--max-depth", "64"])
        .arg(r#"fn:count(doc("d.xml")//a)"#)
        .output()
        .expect("xq runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2");

    // Garbage flag values are usage errors → 64.
    let out = xq()
        .args(["--max-rows", "lots"])
        .arg("1")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(64));
}

#[test]
fn verify_runs_the_oracle_and_prints_the_result() {
    let doc = write_doc("cli5.xml", "<r><a>1</a><a>2</a></r>");
    let out = xq()
        .arg("--doc")
        .arg(format!("d.xml={}", doc.display()))
        .arg("--verify")
        .arg(r#"doc("d.xml")//a"#)
        .output()
        .expect("xq runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 arms agree"), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "<a>1</a><a>2</a>"
    );
}

#[test]
fn verify_rejects_a_deadline_as_a_usage_error() {
    // The oracle's arms run without a deadline, so the combination is
    // refused rather than silently ignored.
    let out = xq()
        .args(["--deadline-ms", "0", "--verify", "1 + 1"])
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(64));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--deadline-ms"), "{stderr}");
}

#[test]
fn verify_divergence_exits_5_with_exrq0004() {
    let doc = write_doc("cli6.xml", "<r><a>1</a><a>2</a></r>");
    for arm in ["optimized", "baseline", "noweaken"] {
        let out = xq()
            .arg("--doc")
            .arg(format!("d.xml={}", doc.display()))
            .args(["--verify", "--inject", &format!("oracle-perturb:{arm}")])
            .arg(r#"doc("d.xml")//a"#)
            .output()
            .expect("xq runs");
        assert_eq!(out.status.code(), Some(5), "arm {arm}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("[EXRQ0004]"), "arm {arm}: {stderr}");
    }
}

#[test]
fn inject_flag_forces_typed_failures() {
    let doc = write_doc("cli7.xml", "<r><a>1</a></r>");
    let with_doc = |extra: &[&str], query: &str| {
        xq().arg("--doc")
            .arg(format!("d.xml={}", doc.display()))
            .args(extra)
            .arg(query)
            .output()
            .expect("xq runs")
    };

    // Injected document I/O failure → dynamic error → exit 2.
    let out = with_doc(&["--inject", "doc-io:1"], r#"doc("d.xml")//a"#);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[FODC0002]"));

    // Injected parse failure at load time → exit 2 with FODC0006.
    let out = with_doc(&["--inject", "doc-parse:1"], "1");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[FODC0006]"));

    // Injected budget trip / cancellation → resource class → exit 3.
    let out = with_doc(&["--inject", "budget-trip:step"], r#"doc("d.xml")//a"#);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[EXRQ0001]"));

    let out = with_doc(&["--inject", "cancel-after:1"], r#"doc("d.xml")//a"#);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[EXRQ0002]"));

    // A malformed spec is a usage error.
    let out = with_doc(&["--inject", "frobnicate:1"], "1");
    assert_eq!(out.status.code(), Some(64));
}

#[test]
fn inject_env_var_is_honored() {
    let doc = write_doc("cli8.xml", "<r><a/></r>");
    let out = xq()
        .arg("--doc")
        .arg(format!("d.xml={}", doc.display()))
        .env("EXRQ_INJECT", "doc-parse:1")
        .arg("1")
        .output()
        .expect("xq runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("[FODC0006]"));
}

#[test]
fn baseline_flag_and_query_file() {
    let doc = write_doc("cli3.xml", "<a><b><c/><d/></b><c/></a>");
    let qfile = write_doc("cli3.xq", r#"doc("d.xml")//(c|d)"#);
    let out = xq()
        .arg("--doc")
        .arg(format!("d.xml={}", doc.display()))
        .arg("--baseline")
        .arg("--query-file")
        .arg(qfile.display().to_string())
        .output()
        .expect("xq runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "<c/><d/><c/>");
}
