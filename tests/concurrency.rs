//! One engine shared by several sessions while its catalog changes under
//! them: statements racing re-registrations of the linked server they read.

use dhqp::{Engine, EngineDataSource};
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Interval, IntervalSet, Row, Schema, Value};
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const MINUTE: Duration = Duration::from_secs(60);

/// A table `name(k, <column>)` holding `k` = `keys` with `column` =
/// `scale · k`.
fn table(engine: &Engine, name: &str, column: &str, keys: &[i64], scale: i64) {
    let schema = Schema::new(vec![
        Column::not_null("k", DataType::Int),
        Column::not_null(column, DataType::Int),
    ]);
    engine.create_table(TableDef::new(name, schema)).unwrap();
    let rows: Vec<Row> = keys
        .iter()
        .map(|&k| Row::new(vec![Value::Int(k), Value::Int(scale * k)]))
        .collect();
    engine.insert(name, &rows).unwrap();
}

/// What each of the two registrations of `srv` answers.
struct Registration {
    engine: Engine,
    /// `SELECT v …` and `SELECT w …` at `k = 1`, if the column exists.
    v: Option<i64>,
    w: Option<i64>,
    /// The `OPENQUERY` row at `k = 2`.
    row: [i64; 2],
}

fn registration(column: &str, scale: i64) -> Registration {
    let engine = Engine::new(format!("remote-{column}"));
    table(&engine, "rt", column, &[1, 2, 3, 4], scale);
    let at_one = Some(scale);
    Registration {
        engine,
        v: at_one.filter(|_| column == "v"),
        w: at_one.filter(|_| column == "w"),
        row: [2, 2 * scale],
    }
}

fn register(head: &Engine, r: &Registration) {
    let source = Arc::new(EngineDataSource::new(r.engine.clone()));
    head.add_linked_server("srv", source).unwrap();
}

const SELECT_V: &str = "SELECT v FROM srv.db.dbo.rt WHERE k = 1";
const SELECT_W: &str = "SELECT w FROM srv.db.dbo.rt WHERE k = 1";
const VIEW: &str = "SELECT k, v FROM dv WHERE k >= 1";
const PASS_THROUGH: &str = "SELECT * FROM OPENQUERY(srv, 'SELECT * FROM rt WHERE k = 2') q";

fn ints(rows: &[Row]) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = rows
        .iter()
        .map(|r| {
            r.values
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("not an int: {other:?}"),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// Whether `sql`'s outcome is what one of `regs` answers, or the refusal
/// the registration it bound explains: a SELECT of a column that
/// registration lacks is refused at bind, and the view whose member bound
/// the `w` registration fails that member's schema check. A statement runs
/// on the registration it bound, so nothing else is refused, and the
/// pass-through read never is.
fn check(sql: &str, got: dhqp_types::Result<Vec<Vec<i64>>>, regs: &[Registration]) {
    let answers: Vec<Option<Vec<Vec<i64>>>> = regs
        .iter()
        .map(|r| match sql {
            SELECT_V => r.v.map(|v| vec![vec![v]]),
            SELECT_W => r.w.map(|w| vec![vec![w]]),
            VIEW => {
                r.v.map(|_| (1..=6).map(|k| vec![k, 10 * k]).collect::<Vec<_>>())
            }
            _ => Some(vec![r.row.to_vec()]),
        })
        .collect();
    match got {
        Ok(rows) => assert!(
            answers.contains(&Some(rows.clone())),
            "{sql}: {rows:?} is no registration's answer"
        ),
        Err(e) => {
            let explained = match sql {
                SELECT_V => e.to_string() == "bind error: unknown column 'v'",
                SELECT_W => e.to_string() == "bind error: unknown column 'w'",
                VIEW => e.kind() == "schema-drift" && e.to_string().contains("on 'remote-w'"),
                _ => false,
            };
            assert!(explained, "{sql}: {e} ({})", e.kind());
        }
    }
}

/// Four sessions read `srv` by name, through a partitioned view over it
/// and through `OPENQUERY` while the name is re-registered 50 times,
/// alternating `rt(k, v)` and `rt(k, w)`. Every statement answers as the
/// registration it bound or is refused for what that registration lacks;
/// nothing hangs or panics, and once the churn stops both column names bind
/// as the last registration says.
#[test]
fn re_registration_under_load() {
    let regs = [registration("v", 10), registration("w", 100)];
    let head = Engine::new("head");
    table(&head, "lt", "v", &[5, 6], 10);
    register(&head, &regs[0]);
    let range = |lo, hi| IntervalSet::single(Interval::between(Value::Int(lo), Value::Int(hi)));
    let members = vec![
        (Some("srv".to_string()), "rt".to_string(), range(1, 4)),
        (None, "lt".to_string(), range(5, 6)),
    ];
    head.define_partitioned_view("dv", "k", members).unwrap();

    let regs = Arc::new(regs);
    let stop = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(AtomicU64::new(0));
    let (done, finished) = mpsc::channel();
    let mut sessions = Vec::new();
    for seed in 0..4u64 {
        let (head, regs, stop, ran, done) = (
            head.clone(),
            Arc::clone(&regs),
            Arc::clone(&stop),
            Arc::clone(&ran),
            done.clone(),
        );
        sessions.push(std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            while !stop.load(Ordering::Relaxed) {
                let sql = [SELECT_V, SELECT_W, VIEW, PASS_THROUGH][rng.gen_range(0..4)];
                let got = head.query(sql).map(|r| ints(&r.rows));
                check(sql, got, &regs[..]);
                ran.fetch_add(1, Ordering::Relaxed);
            }
            done.send(()).unwrap();
        }));
    }
    drop(done);
    for i in 0..50 {
        register(&head, &regs[(i + 1) % 2]);
        // Let statements run against this registration before the next.
        let (target, deadline) = (ran.load(Ordering::Relaxed) + 4, Instant::now() + MINUTE);
        while ran.load(Ordering::Relaxed) < target {
            assert!(
                Instant::now() < deadline,
                "the sessions stopped making progress"
            );
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for _ in 0..4 {
        // A session that panicked drops its sender without sending.
        finished
            .recv_timeout(MINUTE)
            .expect("a session panicked or is stuck");
    }
    for session in sessions {
        session.join().expect("a session panicked");
    }

    // The last registration is `rt(k, v)`.
    for sql in [SELECT_V, VIEW, PASS_THROUGH] {
        let got = head.query(sql).map(|r| ints(&r.rows));
        check(sql, got.clone(), &regs[..1]);
        assert!(got.is_ok(), "{sql}: {got:?}");
    }
    let err = head.query(SELECT_W).unwrap_err();
    assert_eq!(err.to_string(), "bind error: unknown column 'w'", "{err:?}");
}
