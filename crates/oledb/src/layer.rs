//! The provider layer kit: a decorator over a data source, a session or a
//! command writes only what it changes.
//!
//! A layer sees each call as a value — a [`Verb`] on a session, a
//! [`CommandVerb`] on a command — and answers it with a [`Reply`], usually
//! by sending the verb on to what it wraps. One blanket `impl` makes every
//! [`SessionLayer`] a [`Session`] (every [`CommandLayer`] a [`Command`],
//! every [`SourceLayer`] a [`DataSource`]), so a verb added to the trait
//! reaches every layer by construction, and a decision per verb — which
//! verbs write ([`Verb::is_write`]), the link's wire cost — matches on
//! [`Verb`] with no wildcard arm, and stops compiling until it decides
//! about the new one. Providers implement the traits themselves (DESIGN.md
//! §25).
//!
//! A layer that has to know whether its session is in a distributed
//! transaction keeps an [`Enlistment`] and shows it every answer.

use crate::capabilities::ProviderCapabilities;
use crate::datasource::TxnId;
use crate::datasource::{
    is_read_only, Command, CommandResult, DataSource, KeyRange, Session, TrafficSnapshot,
};
use crate::rowset::Rowset;
use crate::schema::TableInfo;
use crate::statistics::Histogram;
use crate::telemetry::LatencySummary;
use dhqp_types::{DhqpError, Result, Row, Value};
use std::sync::atomic::{AtomicBool, Ordering};

/// Declares an object's verbs from one row per method of its trait: the
/// verb enum, its `send` and `name`, the layer trait, and the blanket `impl`
/// that makes every layer that object. A method added to the trait is one
/// more row.
macro_rules! verbs {
    ($(#[$attr:meta])* $verbs:ident, $layer:ident => $object:ident {
        $($verb:ident => $method:ident($($arg:ident: $ty:ty),*) -> $answer:ty, $kind:path;)*
    }) => {
        $(#[$attr])*
        pub enum $verbs<'a> {
            $($verb($($ty),*),)*
        }

        impl $verbs<'_> {
            /// Make this call on `object`.
            pub fn send(self, object: &mut dyn $object) -> Result<Reply> {
                match self {
                    $($verbs::$verb($($arg),*) => object.$method($($arg),*).map($kind),)*
                }
            }

            /// The method this verb calls.
            pub fn name(&self) -> &'static str {
                match self {
                    $($verbs::$verb(..) => stringify!($method),)*
                }
            }
        }

        /// A decorator: it answers every verb, usually by sending it on to
        /// what it wraps, with what it adds around that.
        pub trait $layer: Send {
            fn call(&mut self, verb: $verbs<'_>) -> Result<Reply>;
        }

        // The rows spell out the verbs' lifetime, so the methods declare it.
        #[allow(clippy::needless_lifetimes, clippy::extra_unused_lifetimes)]
        impl<L: $layer> $object for L {
            $(fn $method<'a>(&mut self, $($arg: $ty),*) -> Result<$answer> {
                self.call($verbs::$verb($($arg),*))?.try_into()
            })*
        }
    };
}

verbs! {
    /// One [`Session`] call and its arguments, in the method's order.
    #[derive(Debug, Clone, Copy)]
    Verb, SessionLayer => Session {
        OpenRowset => open_rowset(table: &'a str) -> Box<dyn Rowset>, Reply::Rowset;
        CreateCommand => create_command() -> Box<dyn Command>, Reply::Command;
        OpenIndex => open_index(table: &'a str, index: &'a str, range: &'a KeyRange)
            -> Box<dyn Rowset>, Reply::Rowset;
        FetchByBookmarks => fetch_by_bookmarks(table: &'a str, bookmarks: &'a [u64])
            -> Vec<Row>, Reply::Rows;
        CheckSchema => check_schema(table: &'a str, stamp: u64) -> (), Reply::Done;
        Histogram => histogram(table: &'a str, column: &'a str)
            -> Option<Histogram>, Reply::Histogram;
        JoinTransaction => join_transaction(txn: TxnId) -> (), Reply::Done;
        Prepare => prepare(txn: TxnId) -> (), Reply::Done;
        VoteWithNextWrite => vote_with_next_write(txn: TxnId) -> (), Reply::Done;
        CommitWithNextWrite => commit_with_next_write(txn: TxnId) -> (), Reply::Done;
        Commit => commit(txn: TxnId) -> (), Reply::Done;
        Abort => abort(txn: TxnId) -> (), Reply::Done;
        Insert => insert(table: &'a str, rows: &'a [Row]) -> u64, Reply::Count;
        DeleteByBookmarks => delete_by_bookmarks(table: &'a str, bookmarks: &'a [u64])
            -> u64, Reply::Count;
        UpdateByBookmarks =>
            update_by_bookmarks(table: &'a str, bookmarks: &'a [u64], updates: &'a [Row])
            -> u64, Reply::Count;
    }
}

impl Verb<'_> {
    /// Whether this verb writes rows: the request that a vote or a commit
    /// asked to ride the next write ([`Session::vote_with_next_write`],
    /// [`Session::commit_with_next_write`]) waits for. A command's `execute`
    /// writes when its text does ([`Enlistment::executed`]).
    pub fn is_write(&self) -> bool {
        match self {
            Verb::Insert(..) | Verb::DeleteByBookmarks(..) | Verb::UpdateByBookmarks(..) => true,
            Verb::OpenRowset(..)
            | Verb::CreateCommand()
            | Verb::OpenIndex(..)
            | Verb::FetchByBookmarks(..)
            | Verb::CheckSchema(..)
            | Verb::Histogram(..)
            | Verb::JoinTransaction(_)
            | Verb::Prepare(_)
            | Verb::VoteWithNextWrite(_)
            | Verb::CommitWithNextWrite(_)
            | Verb::Commit(_)
            | Verb::Abort(_) => false,
        }
    }
}

verbs! {
    /// One [`Command`] call and its arguments.
    #[derive(Debug)]
    CommandVerb, CommandLayer => Command {
        SetText => set_text(text: &'a str) -> (), Reply::Done;
        BindParameter => bind_parameter(ordinal: usize, value: Value) -> (), Reply::Done;
        Execute => execute() -> CommandResult, Reply::from;
    }
}

/// Declares [`Reply`], one variant per kind of answer, and the conversion
/// back to the method's own return type; a reply of another kind is a
/// layer answering the wrong verb.
macro_rules! replies {
    ($($(#[$doc:meta])* $kind:ident($answer:ty),)*) => {
        /// What a verb returns, as one type.
        pub enum Reply {
            $($(#[$doc])* $kind($answer),)*
        }

        $(impl TryFrom<Reply> for $answer {
            type Error = DhqpError;

            fn try_from(reply: Reply) -> Result<$answer> {
                match reply {
                    Reply::$kind(answer) => Ok(answer),
                    _ => Err(DhqpError::Provider(
                        concat!("a layer's reply is not ", stringify!($kind)).into(),
                    )),
                }
            }
        })*
    };
}

replies! {
    /// `open_rowset`, `open_index`, and a command's rows.
    Rowset(Box<dyn Rowset>),
    Command(Box<dyn Command>),
    /// `fetch_by_bookmarks`.
    Rows(Vec<Row>),
    Histogram(Option<Histogram>),
    /// The writes, and a command's affected-row count.
    Count(u64),
    /// Everything else.
    Done(()),
}

impl From<CommandResult> for Reply {
    fn from(result: CommandResult) -> Reply {
        match result {
            CommandResult::Rowset(rowset) => Reply::Rowset(rowset),
            CommandResult::RowCount(n) => Reply::Count(n),
        }
    }
}

impl TryFrom<Reply> for CommandResult {
    type Error = DhqpError;

    fn try_from(reply: Reply) -> Result<CommandResult> {
        match reply {
            Reply::Count(n) => Ok(CommandResult::RowCount(n)),
            reply => reply.try_into().map(CommandResult::Rowset),
        }
    }
}

/// Whether a session is in a distributed transaction, as a layer above it
/// can tell from the answers that pass: from an accepted `join_transaction`
/// until an acknowledged `commit` or `abort`, or until the write that a
/// commit rode ([`Session::commit_with_next_write`]) is answered, whatever
/// the answer: the provider committed, or rolled back. The pool keeps an
/// enlisted session out of its idle list; the link exempts it from fault
/// injection.
#[derive(Default)]
pub struct Enlistment {
    enlisted: AtomicBool,
    /// The transaction's commit rides the next write.
    commit_rides: AtomicBool,
}

impl Enlistment {
    pub fn is_enlisted(&self) -> bool {
        self.enlisted.load(Ordering::Relaxed)
    }

    /// `verb` was answered, with `Ok` when `ok`.
    pub fn answered(&self, verb: &Verb<'_>, ok: bool) {
        match verb {
            Verb::JoinTransaction(_) if ok => self.set(true),
            Verb::Commit(_) | Verb::Abort(_) if ok => self.set(false),
            Verb::CommitWithNextWrite(_) if ok => self.commit_rides.store(true, Ordering::Relaxed),
            verb if verb.is_write() => self.write_answered(),
            _ => {}
        }
    }

    /// A command with `text` was executed: anything but a plain `SELECT`
    /// ([`is_read_only`]) is a write.
    pub fn executed(&self, text: &str) {
        if !is_read_only(text) {
            self.write_answered();
        }
    }

    fn write_answered(&self) {
        if self.commit_rides.swap(false, Ordering::Relaxed) {
            self.enlisted.store(false, Ordering::Relaxed);
        }
    }

    /// Joined, or left: a commit that was to ride a write that never came
    /// does not outlive its transaction.
    fn set(&self, enlisted: bool) {
        self.enlisted.store(enlisted, Ordering::Relaxed);
        self.commit_rides.store(false, Ordering::Relaxed);
    }
}

/// A decorator over a data source: what it leaves alone is the inner
/// source's, the optional methods included.
pub trait SourceLayer: Send + Sync {
    fn inner(&self) -> &dyn DataSource;

    /// [`DataSource::create_session`].
    fn session(&self) -> Result<Box<dyn Session>> {
        self.inner().create_session()
    }

    /// [`DataSource::capabilities`], given the inner source's.
    fn advertise(&self, caps: ProviderCapabilities) -> ProviderCapabilities {
        caps
    }

    /// Around a metadata request: `tables`, `table`.
    fn metadata<T>(&self, ask: impl FnOnce(&dyn DataSource) -> Result<T>) -> Result<T> {
        ask(self.inner())
    }

    /// [`DataSource::traffic`]: a layer that is itself the metered wire
    /// answers for it.
    fn link_traffic(&self) -> Option<TrafficSnapshot> {
        self.inner().traffic()
    }

    /// [`DataSource::latency`], likewise.
    fn link_latency(&self) -> Option<LatencySummary> {
        self.inner().latency()
    }
}

impl<L: SourceLayer> DataSource for L {
    fn name(&self) -> &str {
        self.inner().name()
    }

    fn capabilities(&self) -> ProviderCapabilities {
        self.advertise(self.inner().capabilities())
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        self.metadata(|source| source.tables())
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        self.session()
    }

    fn traffic(&self) -> Option<TrafficSnapshot> {
        self.link_traffic()
    }

    fn latency(&self) -> Option<LatencySummary> {
        self.link_latency()
    }

    fn table(&self, name: &str) -> Result<TableInfo> {
        self.metadata(|source| source.table(name))
    }
}
