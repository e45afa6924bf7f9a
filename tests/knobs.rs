//! The knob table's contract (`dhqp::knobs`): 24 uniquely named rows, one
//! parsing rule per kind of row, values that round-trip through their own
//! rendering, and a README table that is the table.

use dhqp::knobs::{render_markdown, Kind, KnobRow, Knobs, KNOBS};
use dhqp::{EventConfig, EventKind, OptimizerConfig, ParallelConfig};

/// What `row` prints after `text` is applied to the defaults.
fn applied(row: &KnobRow, text: &str) -> String {
    let mut knobs = Knobs::default();
    (row.apply)(&mut knobs, text);
    (row.render)(&knobs)
}

fn rows(kind: Kind) -> impl Iterator<Item = &'static KnobRow> {
    KNOBS.iter().filter(move |row| row.kind == kind)
}

fn row(name: &str) -> &'static KnobRow {
    KNOBS.iter().find(|row| row.name == name).unwrap()
}

#[test]
fn twenty_four_rows_with_unique_names() {
    assert_eq!(KNOBS.len(), 24);
    let mut names: Vec<&str> = KNOBS.iter().map(|row| row.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 24);
    assert!(names.iter().all(|name| name.starts_with("DHQP_")));
}

/// What `sys.dm_os_knobs` prints can be fed back through the environment.
#[test]
fn every_default_round_trips_through_its_own_rendering() {
    let default = Knobs::default();
    for row in KNOBS {
        let printed = (row.render)(&default);
        assert_eq!(applied(row, &printed), printed, "{}", row.name);
    }
}

#[test]
fn one_switch_rule_for_every_switch_row() {
    assert_eq!(rows(Kind::Switch).count(), 8);
    let default = Knobs::default();
    for row in rows(Kind::Switch) {
        let unset = (row.render)(&default);
        for (text, want) in [
            ("", unset.as_str()),
            ("  ", unset.as_str()),
            ("0", "false"),
            (" 0 ", "false"),
            ("false", "false"),
            ("1", "true"),
            (" 1", "true"),
            ("yes", "true"),
        ] {
            assert_eq!(applied(row, text), want, "{}={text:?}", row.name);
        }
    }
}

#[test]
fn one_numeric_rule_for_every_number_row() {
    assert_eq!(rows(Kind::Number).count(), 14);
    let default = Knobs::default();
    for row in rows(Kind::Number) {
        let unset = (row.render)(&default);
        assert_eq!(applied(row, " 7 "), "7", "{}: trimmed", row.name);
        for text in ["", "abc", "-1", "1.5"] {
            assert_eq!(applied(row, text), unset, "{}={text:?}", row.name);
        }
    }
}

#[test]
fn numbers_clamp_and_saturate() {
    // 2^32 wrapped to 0 (then clamped to 1) through `as u32`.
    assert_eq!(
        applied(row("DHQP_RETRY_ATTEMPTS"), "4294967296"),
        u32::MAX.to_string()
    );
    assert_eq!(applied(row("DHQP_RETRY_ATTEMPTS"), "0"), "1");
    assert_eq!(applied(row("DHQP_BATCH_SIZE"), "0"), "1");
    assert_eq!(applied(row("DHQP_PLAN_CACHE_SIZE"), "0"), "1");
    assert_eq!(applied(row("DHQP_SLOW_QUERY_MS"), "0"), "0");
}

#[test]
fn parallel_switch_moves_plan_and_runtime_together() {
    let env = Knobs::from_lookup(|name| (name == "DHQP_PARALLEL").then(|| "1".to_string()));
    assert_eq!(env.named, ["DHQP_PARALLEL"]);
    assert_eq!(env.knobs.parallel, ParallelConfig::parallel());
    // Plans do not depend on it: a union decides its dispatch when it opens.
    assert_eq!(env.knobs.optimizer, OptimizerConfig::default());
    let none = Knobs::from_lookup(|_| None);
    assert!(none.named.is_empty());
    assert_eq!(none.knobs, Knobs::default());
}

#[test]
fn events_accepts_switches_and_kind_lists() {
    let events = row("DHQP_EVENTS");
    assert_eq!(applied(events, "all"), "mask=0xffff");
    assert_eq!(applied(events, "0"), "off");
    assert_eq!(applied(events, "no_such_kind"), "off");
    let retry = EventConfig::only(&[EventKind::RetryAttempt]);
    assert_eq!(
        applied(events, " retry , no_such_kind"),
        format!("mask=0x{:04x}", retry.mask)
    );
}

/// The README's knob table is generated: the text between the markers is
/// `render_markdown()`, byte for byte.
#[test]
fn readme_table_is_the_knob_table() {
    const BEGIN: &str = "<!-- knobs:begin -->\n";
    const END: &str = "<!-- knobs:end -->";
    let readme = include_str!("../README.md");
    let start = readme.find(BEGIN).expect("README has a knobs:begin marker") + BEGIN.len();
    let end = readme.find(END).expect("README has a knobs:end marker");
    let want = render_markdown();
    assert!(
        readme[start..end] == want,
        "README.md knob table drifted from dhqp::knobs::KNOBS; \
         replace the text between the markers with:\n{want}"
    );
}
