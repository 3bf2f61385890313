//! # asbestos-db
//!
//! The database layer of the Asbestos reproduction: a small in-memory
//! relational engine (the SQLite substitute — parser, heap tables, hash
//! indexes declared in the schema and recovered with it, CRUD with a work
//! metric for cost accounting) plus ok-dbproxy, the trusted process that
//! interposes on all worker database access and converts Asbestos labels
//! to data policies (§7.5, §7.6):
//!
//! * a hidden `user_id` column on every table, invisible to workers;
//! * writes gated on `V ⊑ {uT 3, uG 0, 2}`;
//! * reads answered with one message per row owner, tainted by that owner,
//!   then an untainted end-of-results marker;
//! * decentralized declassification: `V(uT) = ⋆` writes rows with owner 0.

#![forbid(unsafe_code)]

pub mod ast;
pub mod durable;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod proto;
pub mod proxy;
pub mod snapshot;
pub mod table;
pub mod value;

pub use durable::{DbRecord, DbRecovery, DurableDb};
pub use engine::{Database, DbError, QueryResult};
pub use parser::parse;
pub use proto::DbMsg;
pub use proxy::{
    spawn_dbproxy, write_allowed, DbHandle, DbProxy, DB_PORT_ENV, DB_TRUSTED_ENV, OWNERS_TABLE,
    USER_ID_COLUMN,
};
pub use snapshot::{put_row, read_row, read_rows, restore, snapshot, SnapshotError};
pub use value::SqlValue;
