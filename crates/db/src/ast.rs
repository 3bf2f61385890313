//! The SQL abstract syntax tree (the subset OKWS needs).

use crate::value::SqlValue;

/// A literal or parameter placeholder in a statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// A literal value.
    Lit(SqlValue),
    /// The n-th `?` placeholder (0-based).
    Param(usize),
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two values.
    ///
    /// NULL never compares true (SQL three-valued logic, collapsed to
    /// false, which is how WHERE treats unknown).
    pub fn eval(self, a: &SqlValue, b: &SqlValue) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// One `column OP expr` predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Comparison {
    /// Column name.
    pub column: String,
    /// Operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Expr,
}

/// A WHERE clause: a conjunction of comparisons.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Where {
    /// All conjuncts must hold.
    pub conjuncts: Vec<Comparison>,
}

/// Column list of a SELECT.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SelectCols {
    /// `*`
    Star,
    /// Named columns.
    Named(Vec<String>),
}

/// A parsed SQL statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// `CREATE TABLE name (col, col, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column names.
        columns: Vec<String>,
    },
    /// `CREATE INDEX ON table (col)`
    CreateIndex {
        /// Table name.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `INSERT INTO table (cols…) VALUES (exprs…)`
    Insert {
        /// Table name.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Values, one per column.
        values: Vec<Expr>,
    },
    /// `SELECT cols FROM table [WHERE …]`
    Select {
        /// Projection.
        columns: SelectCols,
        /// Table name.
        table: String,
        /// Filter.
        filter: Where,
    },
    /// `UPDATE table SET col = expr, … [WHERE …]`
    Update {
        /// Table name.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Filter.
        filter: Where,
    },
    /// `DELETE FROM table [WHERE …]`
    Delete {
        /// Table name.
        table: String,
        /// Filter.
        filter: Where,
    },
}

impl Stmt {
    /// The table a statement touches.
    pub fn table(&self) -> &str {
        match self {
            Stmt::CreateTable { name, .. } => name,
            Stmt::CreateIndex { table, .. } => table,
            Stmt::Insert { table, .. } => table,
            Stmt::Select { table, .. } => table,
            Stmt::Update { table, .. } => table,
            Stmt::Delete { table, .. } => table,
        }
    }

    /// Every column name the statement mentions (used by ok-dbproxy to
    /// reject worker queries that touch the hidden `user_id` column, §7.5).
    pub fn mentioned_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = Vec::new();
        match self {
            Stmt::CreateTable { columns, .. } => cols.extend(columns.iter().map(String::as_str)),
            Stmt::CreateIndex { column, .. } => cols.push(column),
            Stmt::Insert { columns, .. } => {
                if let Some(cs) = columns {
                    cols.extend(cs.iter().map(String::as_str));
                }
            }
            Stmt::Select {
                columns, filter, ..
            } => {
                if let SelectCols::Named(cs) = columns {
                    cols.extend(cs.iter().map(String::as_str));
                }
                cols.extend(filter.conjuncts.iter().map(|c| c.column.as_str()));
            }
            Stmt::Update { sets, filter, .. } => {
                cols.extend(sets.iter().map(|(c, _)| c.as_str()));
                cols.extend(filter.conjuncts.iter().map(|c| c.column.as_str()));
            }
            Stmt::Delete { filter, .. } => {
                cols.extend(filter.conjuncts.iter().map(|c| c.column.as_str()));
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval() {
        use SqlValue::*;
        assert!(CmpOp::Eq.eval(&Int(1), &Int(1)));
        assert!(CmpOp::Ne.eval(&Int(1), &Int(2)));
        assert!(CmpOp::Lt.eval(&Int(1), &Int(2)));
        assert!(CmpOp::Ge.eval(&Text("b".into()), &Text("a".into())));
        // NULL never matches.
        assert!(!CmpOp::Eq.eval(&Null, &Null));
        assert!(!CmpOp::Ne.eval(&Null, &Int(1)));
    }

    #[test]
    fn mentioned_columns_covers_projection_filter_and_sets() {
        let stmt = Stmt::Update {
            table: "t".into(),
            sets: vec![("a".into(), Expr::Lit(SqlValue::Int(1)))],
            filter: Where {
                conjuncts: vec![Comparison {
                    column: "user_id".into(),
                    op: CmpOp::Eq,
                    rhs: Expr::Lit(SqlValue::Int(0)),
                }],
            },
        };
        let cols = stmt.mentioned_columns();
        assert!(cols.contains(&"a"));
        assert!(cols.contains(&"user_id"));
    }
}
