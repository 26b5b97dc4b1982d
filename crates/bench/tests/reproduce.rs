//! End to end through the real binary: the committed `results/*.md` are
//! what the code prints today, and a mistyped command line is refused
//! instead of silently running something else.

use std::process::{Command, Stdio};

fn p4ce_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_p4ce-bench"))
        .args(args)
        .output()
        .expect("p4ce-bench runs")
}

#[test]
fn committed_tables_are_what_the_code_prints() {
    // The seven tables that regenerate in under a second each in a
    // release build; CI's bench-smoke job checks all nine. One child per
    // table, all at once: a debug build is ~100x slower and the tables
    // are independent.
    let children: Vec<_> = [
        "maxrate_consensus",
        "fig7_burst_latency",
        "table4_failover",
        "ablation_ack_drop",
        "ablation_credit_mode",
        "ablation_verb_cost",
        "related_p4xos",
    ]
    .into_iter()
    .map(|stem| {
        let child = Command::new(env!("CARGO_BIN_EXE_p4ce-bench"))
            .args(["reproduce", "--check", stem])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("p4ce-bench runs");
        (stem, child)
    })
    .collect();
    for (stem, child) in children {
        let out = child.wait_with_output().expect("p4ce-bench exits");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains(&format!("{stem}: identical")),
            "results/{stem}.md drifted from the code:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn a_mistyped_command_line_prints_usage_and_exits_2() {
    for args in [
        &["groups", "--thread", "4"][..],
        &["groups", "--threads", "x"],
        &["failover", "--seed"],
        &["fig6", "--quick"],
        &["groups_sweep"],
        &[],
    ] {
        let out = p4ce_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: p4ce-bench"), "{args:?}: {stderr}");
    }
}
