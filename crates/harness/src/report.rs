//! Table rendering: every experiment prints a markdown table (the shape
//! reported in EXPERIMENTS.md and committed under `results/`).

use std::fmt::Write as _;

/// A typed result row that knows how to print itself.
pub trait TableRow {
    /// Column headers, in order.
    fn headers() -> Vec<&'static str>;
    /// Cell values for this row, in header order.
    fn cells(&self) -> Vec<String>;
}

/// Renders rows as a GitHub-flavoured markdown table.
pub fn to_markdown<R: TableRow>(title: &str, rows: &[R]) -> String {
    let headers = R::headers();
    let mut out = String::new();
    let _ = writeln!(out, "### {title}\n");
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.cells().join(" | "));
    }
    out
}

/// The standard warning line for bounded-trace-ring truncation: `None`
/// when nothing was dropped, so reports can append it unconditionally.
/// A truncated ring silently biases anything assembled from the record
/// stream (spans, timelines, annotations) toward the end of the run —
/// that must never go unflagged.
pub fn truncation_warning(dropped: u64) -> Option<String> {
    (dropped > 0).then(|| {
        format!(
            "WARNING: bounded trace ring dropped {dropped} records (oldest first) — \
             spans and timelines only cover the tail of the run"
        )
    })
}

/// Formats a float with sensible experiment precision.
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo {
        name: &'static str,
        value: f64,
    }
    impl TableRow for Demo {
        fn headers() -> Vec<&'static str> {
            vec!["name", "value"]
        }
        fn cells(&self) -> Vec<String> {
            vec![self.name.to_owned(), fmt_f64(self.value)]
        }
    }

    #[test]
    fn markdown_shape() {
        let rows = vec![
            Demo {
                name: "a",
                value: 1.5,
            },
            Demo {
                name: "b",
                value: 250.0,
            },
        ];
        let md = to_markdown("Demo", &rows);
        assert!(md.contains("### Demo"));
        assert!(md.contains("| name | value |"));
        assert!(md.contains("| a | 1.50 |"));
        assert!(md.contains("| b | 250 |"));
    }

    #[test]
    fn truncation_warning_only_fires_on_drops() {
        assert_eq!(truncation_warning(0), None);
        let w = truncation_warning(17).expect("drops warn");
        assert!(w.starts_with("WARNING:"));
        assert!(w.contains("17 records"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.1234567), "0.1235");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(1234.6), "1235");
    }
}
