//! Distributed transaction integration tests: 2PC across engine
//! federations (the MSDTC role of paper §2), with the transfer workload of
//! experiment E11.

use dhqp::{Engine, EngineDataSource};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{DataSource, RowsetExt};
use dhqp_types::{Row, Value};
use dhqp_workload::accounts::{create_account_partition, total_balance};
use std::sync::Arc;

/// Two member engines behind links, each holding half the accounts, plus a
/// head engine with the `accounts_all` DPV.
struct Bank {
    head: Engine,
    members: Vec<Engine>,
    sources: Vec<Arc<dyn DataSource>>,
}

fn bank() -> Bank {
    let head = Engine::new("head");
    let mut members = Vec::new();
    let mut sources: Vec<Arc<dyn DataSource>> = Vec::new();
    let mut view_members = Vec::new();
    for i in 0..2 {
        let member = Engine::new(format!("bank{i}-engine"));
        let lo = i * 50;
        let hi = lo + 49;
        let table = format!("accounts_{i}");
        let domain = create_account_partition(member.storage(), &table, lo, hi, 100).unwrap();
        let link = NetworkLink::new(format!("bank{i}"), NetworkConfig::lan());
        let source: Arc<dyn DataSource> = Arc::new(NetworkedDataSource::new(
            Arc::new(EngineDataSource::new(member.clone())),
            link,
        ));
        head.add_linked_server(&format!("bank{i}"), Arc::clone(&source))
            .unwrap();
        view_members.push((Some(format!("bank{i}")), table, domain));
        members.push(member);
        sources.push(source);
    }
    head.define_partitioned_view("accounts_all", "id", view_members)
        .unwrap();
    Bank {
        head,
        members,
        sources,
    }
}

fn balances(bank: &Bank) -> i64 {
    total_balance(&[
        (bank.members[0].storage(), "accounts_0"),
        (bank.members[1].storage(), "accounts_1"),
    ])
    .unwrap()
}

/// Transfer `amount` between two accounts via explicit DTC enlistment —
/// the programmatic MSDTC pattern.
fn transfer(bank: &Bank, from: i64, to: i64, amount: i64) -> dhqp_types::Result<()> {
    let dtc = bank.head.dtc();
    let mut txn = dtc.begin();
    for (i, source) in bank.sources.iter().enumerate() {
        txn.enlist(format!("bank{i}"), source.create_session()?)?;
    }
    for (account, delta) in [(from, -amount), (to, amount)] {
        let member = (account / 50) as usize;
        let table = format!("accounts_{member}");
        let session = txn.session_mut(&format!("bank{member}"))?;
        // Read current balance, then buffer the update.
        let rows = session.open_rowset(&table)?.collect_rows()?;
        let row = rows
            .iter()
            .find(|r| r.get(0) == &Value::Int(account))
            .expect("account exists")
            .clone();
        let Value::Int(balance) = row.get(1) else {
            panic!("balance type")
        };
        let bookmark = row.bookmark.expect("bookmark");
        session.update_by_bookmarks(
            &table,
            &[bookmark],
            &[Row::new(vec![
                Value::Int(account),
                Value::Int(balance + delta),
            ])],
        )?;
    }
    txn.commit()
}

#[test]
fn cross_server_transfer_commits_atomically() {
    let bank = bank();
    assert_eq!(balances(&bank), 10_000);
    transfer(&bank, 10, 60, 30).unwrap();
    assert_eq!(balances(&bank), 10_000, "money is conserved");
    let r = bank.members[0]
        .query("SELECT balance FROM accounts_0 WHERE id = 10")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(70));
    let r = bank.members[1]
        .query("SELECT balance FROM accounts_1 WHERE id = 60")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(130));
    assert_eq!(bank.head.dtc().stats(), (1, 0));
}

#[test]
fn prepare_failure_rolls_back_both_sides() {
    let bank = bank();
    bank.members[1].storage().set_fail_prepare(true);
    let err = transfer(&bank, 10, 60, 30).unwrap_err();
    assert_eq!(err.kind(), "transaction");
    bank.members[1].storage().set_fail_prepare(false);
    assert_eq!(balances(&bank), 10_000);
    let r = bank.members[0]
        .query("SELECT balance FROM accounts_0 WHERE id = 10")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(100), "debit must be rolled back");
    assert_eq!(bank.head.dtc().stats(), (0, 1));
}

#[test]
fn commit_phase_failure_leaves_in_doubt_until_recovery() {
    let bank = bank();
    bank.members[1].storage().set_fail_commit(true);
    let err = transfer(&bank, 10, 60, 30).unwrap_err();
    assert_eq!(err.kind(), "transaction");
    assert!(err.to_string().contains("in doubt"), "{err}");
    // The decision stands — it was Committed — and the healthy member
    // applied its half of the transfer.
    let dtc = bank.head.dtc();
    assert_eq!(dtc.stats(), (1, 0));
    let r = bank.members[0]
        .query("SELECT balance FROM accounts_0 WHERE id = 10")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(70));
    // The failed member still buffers its credit; the txn is in doubt.
    assert_eq!(dtc.telemetry().in_doubt, 1);
    assert_eq!(dtc.in_doubt_txns().len(), 1);
    assert_eq!(bank.head.metrics().dtc_in_doubt, 1);

    // Recovery cannot make progress while the participant is down...
    let report = dtc.recover();
    assert_eq!(report.resolved, 0);
    assert_eq!(report.still_in_doubt, 1);

    // ...but once it heals, recover() re-delivers the logged commit.
    bank.members[1].storage().set_fail_commit(false);
    let report = dtc.recover();
    assert_eq!(report.resolved, 1);
    assert_eq!(report.still_in_doubt, 0);
    assert_eq!(balances(&bank), 10_000, "money is conserved after recovery");
    let r = bank.members[1]
        .query("SELECT balance FROM accounts_1 WHERE id = 60")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(130));
    let m = bank.head.metrics();
    assert_eq!(m.dtc_in_doubt, 0);
    assert_eq!(m.dtc_recovered, 1);
    // Recovery resolves the original decision; it does not double-count.
    assert_eq!(dtc.stats(), (1, 0));
}

#[test]
fn prepare_failure_is_never_in_doubt() {
    // A prepare-phase refusal aborts cleanly: nothing to recover.
    let bank = bank();
    bank.members[0].storage().set_fail_prepare(true);
    transfer(&bank, 10, 60, 30).unwrap_err();
    let dtc = bank.head.dtc();
    assert_eq!(dtc.stats(), (0, 1));
    assert!(dtc.in_doubt_txns().is_empty());
    let report = dtc.recover();
    assert_eq!(report.resolved, 0);
    assert_eq!(report.still_in_doubt, 0);
}

#[test]
fn many_transfers_conserve_total_balance() {
    let bank = bank();
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut committed = 0;
    for _ in 0..50 {
        let from = rng.gen_range(0..100);
        let to = rng.gen_range(0..100);
        if from == to {
            continue;
        }
        transfer(&bank, from, to, rng.gen_range(1..20)).unwrap();
        committed += 1;
    }
    assert_eq!(balances(&bank), 10_000);
    assert_eq!(bank.head.dtc().stats().0, committed);
}

#[test]
fn dpv_update_transfers_through_sql() {
    // The same conservation property via SQL against the federation view.
    let bank = bank();
    bank.head
        .execute("UPDATE accounts_all SET balance = balance - 25 WHERE id = 5")
        .unwrap();
    bank.head
        .execute("UPDATE accounts_all SET balance = balance + 25 WHERE id = 95")
        .unwrap();
    assert_eq!(balances(&bank), 10_000);
    let r = bank
        .head
        .query("SELECT balance FROM accounts_all WHERE id = 5")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(75));
}

/// The SQL path ships each member its UPDATE, which runs inside the
/// member's transaction and carries its vote: a refusal there aborts both.
#[test]
fn pushed_update_whose_vote_is_refused_rolls_back_both_sides() {
    let bank = bank();
    let sql = "UPDATE accounts_all SET balance = balance - 30 WHERE id IN (10, 60)";
    bank.members[1].storage().set_fail_prepare(true);
    let err = bank.head.execute(sql).unwrap_err();
    assert_eq!(err.kind(), "transaction");
    bank.members[1].storage().set_fail_prepare(false);
    assert_eq!(balances(&bank), 10_000, "member 0 had already voted yes");
    assert_eq!(bank.head.dtc().stats(), (0, 1));
    assert_eq!(bank.head.dtc().telemetry().in_doubt, 0);
    assert_eq!(bank.head.execute(sql).unwrap().rows_affected, Some(2));
    assert_eq!(balances(&bank), 10_000 - 60);
    let m = bank.head.metrics();
    assert_eq!((m.dml_pushed, m.dml_seeks + m.dml_scans), (4, 0));
    assert_eq!(m.dtc_votes_ridden, 3, "one before the refusal, two after");
}

/// The cross-member UPDATE of the tests below: member 1 writes last.
const DEBIT_BOTH: &str = "UPDATE accounts_all SET balance = balance - 30 WHERE id IN (10, 60)";

/// `balance` of account `id`, read at its member.
fn balance(bank: &Bank, id: i64) -> Value {
    let member = (id / 50) as usize;
    let sql = format!("SELECT balance FROM accounts_{member} WHERE id = {id}");
    bank.members[member]
        .query(&sql)
        .unwrap()
        .value(0, 0)
        .clone()
}

/// `(connects, sessions_idle)` of a linked server's pool.
fn pool(bank: &Bank, server: &str) -> (Value, Value) {
    let sql =
        format!("SELECT connects, sessions_idle FROM sys.dm_link_stats WHERE name = '{server}'");
    let r = bank.head.query(&sql).unwrap();
    (r.value(0, 0).clone(), r.value(0, 1).clone())
}

/// The last participant's UPDATE carries the commit. Whatever fails there —
/// its vote or its commit — it rolls back itself, member 0 (which voted yes)
/// is aborted, nothing is left in doubt, and member 1's session is back in
/// its pool.
#[test]
fn the_last_participant_decides_and_a_failure_there_aborts_both_sides() {
    for fail in ["prepare", "commit"] {
        let bank = bank();
        let storage = bank.members[1].storage();
        let set = |on| match fail {
            "prepare" => storage.set_fail_prepare(on),
            _ => storage.set_fail_commit(on),
        };
        set(true);
        let err = bank.head.execute(DEBIT_BOTH).unwrap_err();
        set(false);
        assert_eq!(err.kind(), "transaction", "{fail}: {err}");
        assert_eq!(balances(&bank), 10_000, "{fail}");
        assert_eq!(balance(&bank, 60), Value::Int(100), "{fail}");
        let dtc = bank.head.dtc();
        assert_eq!(dtc.stats(), (0, 1), "{fail}");
        let m = bank.head.metrics();
        assert_eq!((m.dtc_in_doubt, m.dtc_commits_ridden), (0, 0), "{fail}");
        assert!(bank.members.iter().all(|e| !e.storage().has_txn(1)));
        let (connects, idle) = pool(&bank, "bank1");
        assert_eq!(
            connects, idle,
            "{fail}: every session bank1 connected is idle"
        );
        // And the next try commits, on the sessions the pools kept.
        assert_eq!(
            bank.head.execute(DEBIT_BOTH).unwrap().rows_affected,
            Some(2)
        );
        assert_eq!(pool(&bank, "bank1").0, connects, "{fail}");
        assert_eq!(balances(&bank), 10_000 - 60, "{fail}");
        assert_eq!(bank.head.metrics().dtc_commits_ridden, 1, "{fail}");
    }
}

/// A participant told the outcome in a message of its own can still miss
/// it: the first one is in doubt until recovery, the last one committed
/// with its write.
#[test]
fn a_first_participant_that_misses_the_commit_is_in_doubt_until_recovery() {
    let bank = bank();
    bank.members[0].storage().set_fail_commit(true);
    let err = bank.head.execute(DEBIT_BOTH).unwrap_err();
    assert!(err.to_string().contains("in doubt"), "{err}");
    let dtc = bank.head.dtc();
    assert_eq!(dtc.stats(), (1, 0));
    assert_eq!(balance(&bank, 60), Value::Int(70));
    assert_eq!(balance(&bank, 10), Value::Int(100));
    assert_eq!(bank.head.metrics().dtc_in_doubt, 1);
    bank.members[0].storage().set_fail_commit(false);
    assert_eq!(dtc.recover().resolved, 1);
    assert_eq!(balance(&bank, 10), Value::Int(70));
    assert_eq!(balances(&bank), 10_000 - 60);
    assert_eq!(bank.head.metrics().dtc_in_doubt, 0);
}

#[test]
fn federated_aggregate_over_view() {
    let bank = bank();
    let r = bank
        .head
        .query("SELECT COUNT(*) AS n, SUM(balance) AS total FROM accounts_all")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(100));
    assert_eq!(r.value(0, 1), &Value::Int(10_000));
}
