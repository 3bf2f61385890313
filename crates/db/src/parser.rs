//! Recursive-descent parser for the SQL subset.

use std::fmt;

use crate::ast::{CmpOp, Comparison, Expr, SelectCols, Stmt, Where};
use crate::lexer::{lex, LexError, Token};
use crate::value::SqlValue;

/// A parse error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError { msg: e.to_string() }
    }
}

/// Parses one SQL statement. Anything after it (bar one `;`) is an error:
/// this is the only entry for statements a worker sends, and a worker
/// sends exactly one.
pub fn parse(sql: &str) -> Result<Stmt, ParseError> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    // Optional trailing semicolon.
    let _ = p.eat_punct(";");
    p.expect_end()?;
    Ok(stmt)
}

/// Parses a `;`-separated list of statements — a schema script, accepted
/// on the trusted DDL path only. Empty statements and a trailing `;` are
/// allowed; one bad statement fails the whole script. `?` placeholders
/// number from 0 within each statement.
pub fn parse_script(sql: &str) -> Result<Vec<Stmt>, ParseError> {
    let mut p = Parser::new(sql)?;
    let mut stmts = Vec::new();
    loop {
        while p.eat_punct(";") {}
        if p.peek().is_none() {
            return Ok(stmts);
        }
        p.params = 0;
        stmts.push(p.statement()?);
        if !p.eat_punct(";") {
            p.expect_end()?;
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: lex(sql)?,
            pos: 0,
            params: 0,
        })
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError { msg: msg.into() }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err(&format!("trailing tokens starting at {}", self.peek_desc()))),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        match self.peek() {
            Some(t) => format!("{t}"),
            None => "end of input".into(),
        }
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}, found {}", self.peek_desc())))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if let Some(Token::Punct(got)) = self.peek() {
            if *got == p {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{p}', found {}", self.peek_desc())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(&format!(
                "expected identifier, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_keyword("CREATE") {
            if self.eat_keyword("TABLE") {
                return self.create_table();
            }
            if self.eat_keyword("INDEX") {
                return self.create_index();
            }
            return Err(self.err("expected TABLE or INDEX after CREATE"));
        }
        if self.eat_keyword("INSERT") {
            return self.insert();
        }
        if self.eat_keyword("SELECT") {
            return self.select();
        }
        if self.eat_keyword("UPDATE") {
            return self.update();
        }
        if self.eat_keyword("DELETE") {
            return self.delete();
        }
        Err(self.err(&format!("unknown statement start: {}", self.peek_desc())))
    }

    fn create_table(&mut self) -> Result<Stmt, ParseError> {
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut columns = vec![self.ident()?];
        while self.eat_punct(",") {
            columns.push(self.ident()?);
        }
        self.expect_punct(")")?;
        Ok(Stmt::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> Result<Stmt, ParseError> {
        // Optional index name: CREATE INDEX [name] ON table (col)
        let first = self.ident()?;
        let table = if self.eat_keyword("ON") {
            // `first` was actually... no: if the next token was ON, `first`
            // was the index name. Wait: we already consumed one ident.
            self.ident()?
        } else if first.eq_ignore_ascii_case("ON") {
            self.ident()?
        } else {
            self.expect_keyword("ON")?;
            unreachable!("expect_keyword returns Err before this point")
        };
        self.expect_punct("(")?;
        let column = self.ident()?;
        self.expect_punct(")")?;
        Ok(Stmt::CreateIndex { table, column })
    }

    fn insert(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_punct("(") {
            let mut cols = vec![self.ident()?];
            while self.eat_punct(",") {
                cols.push(self.ident()?);
            }
            self.expect_punct(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("VALUES")?;
        self.expect_punct("(")?;
        let mut values = vec![self.expr()?];
        while self.eat_punct(",") {
            values.push(self.expr()?);
        }
        self.expect_punct(")")?;
        Ok(Stmt::Insert {
            table,
            columns,
            values,
        })
    }

    fn select(&mut self) -> Result<Stmt, ParseError> {
        let columns = if self.eat_punct("*") {
            SelectCols::Star
        } else {
            let mut cols = vec![self.ident()?];
            while self.eat_punct(",") {
                cols.push(self.ident()?);
            }
            SelectCols::Named(cols)
        };
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = self.opt_where()?;
        Ok(Stmt::Select {
            columns,
            table,
            filter,
        })
    }

    fn update(&mut self) -> Result<Stmt, ParseError> {
        let table = self.ident()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_punct("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_punct(",") {
                break;
            }
        }
        let filter = self.opt_where()?;
        Ok(Stmt::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = self.opt_where()?;
        Ok(Stmt::Delete { table, filter })
    }

    fn opt_where(&mut self) -> Result<Where, ParseError> {
        if !self.eat_keyword("WHERE") {
            return Ok(Where::default());
        }
        let mut conjuncts = vec![self.comparison()?];
        while self.eat_keyword("AND") {
            conjuncts.push(self.comparison()?);
        }
        Ok(Where { conjuncts })
    }

    fn comparison(&mut self) -> Result<Comparison, ParseError> {
        let column = self.ident()?;
        let op = match self.next() {
            Some(Token::Punct("=")) => CmpOp::Eq,
            Some(Token::Punct("!=")) => CmpOp::Ne,
            Some(Token::Punct("<")) => CmpOp::Lt,
            Some(Token::Punct("<=")) => CmpOp::Le,
            Some(Token::Punct(">")) => CmpOp::Gt,
            Some(Token::Punct(">=")) => CmpOp::Ge,
            other => {
                return Err(self.err(&format!(
                    "expected comparison operator, found {}",
                    other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
                )))
            }
        };
        let rhs = self.expr()?;
        Ok(Comparison { column, op, rhs })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Lit(SqlValue::Int(i))),
            Some(Token::Str(s)) => Ok(Expr::Lit(SqlValue::Text(s))),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("NULL") => {
                Ok(Expr::Lit(SqlValue::Null))
            }
            Some(Token::Param) => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            other => Err(self.err(&format!(
                "expected literal or '?', found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let stmt = parse("CREATE TABLE users (name, pw, uid)").unwrap();
        assert_eq!(
            stmt,
            Stmt::CreateTable {
                name: "users".into(),
                columns: vec!["name".into(), "pw".into(), "uid".into()],
            }
        );
    }

    #[test]
    fn parses_create_index_with_and_without_name() {
        let a = parse("CREATE INDEX ON users (name)").unwrap();
        let b = parse("CREATE INDEX idx_users ON users (name)").unwrap();
        for stmt in [a, b] {
            assert_eq!(
                stmt,
                Stmt::CreateIndex {
                    table: "users".into(),
                    column: "name".into(),
                }
            );
        }
    }

    #[test]
    fn parses_insert() {
        let stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x')").unwrap();
        assert_eq!(
            stmt,
            Stmt::Insert {
                table: "t".into(),
                columns: Some(vec!["a".into(), "b".into()]),
                values: vec![
                    Expr::Lit(SqlValue::Int(1)),
                    Expr::Lit(SqlValue::Text("x".into())),
                ],
            }
        );
        // Without column list, with params and NULL.
        let stmt = parse("INSERT INTO t VALUES (?, NULL, ?)").unwrap();
        assert_eq!(
            stmt,
            Stmt::Insert {
                table: "t".into(),
                columns: None,
                values: vec![Expr::Param(0), Expr::Lit(SqlValue::Null), Expr::Param(1)],
            }
        );
    }

    #[test]
    fn parses_select_with_where() {
        let stmt = parse("SELECT name, uid FROM users WHERE name = ? AND uid >= 10").unwrap();
        match stmt {
            Stmt::Select {
                columns: SelectCols::Named(cols),
                table,
                filter,
            } => {
                assert_eq!(cols, vec!["name".to_string(), "uid".to_string()]);
                assert_eq!(table, "users");
                assert_eq!(filter.conjuncts.len(), 2);
                assert_eq!(filter.conjuncts[0].op, CmpOp::Eq);
                assert_eq!(filter.conjuncts[1].op, CmpOp::Ge);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_select_star() {
        let stmt = parse("SELECT * FROM t;").unwrap();
        assert!(matches!(
            stmt,
            Stmt::Select {
                columns: SelectCols::Star,
                ..
            }
        ));
    }

    #[test]
    fn parses_update_delete() {
        let stmt = parse("UPDATE t SET a = 1, b = 'x' WHERE c != 0").unwrap();
        assert!(matches!(stmt, Stmt::Update { ref sets, .. } if sets.len() == 2));
        let stmt = parse("DELETE FROM t WHERE k = 'dead'").unwrap();
        assert!(matches!(stmt, Stmt::Delete { .. }));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("SELEC * FROM t").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("INSERT INTO t VALUES 1").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t garbage").is_err());
        assert!(parse("CREATE VIEW v").is_err());
    }

    #[test]
    fn parse_takes_exactly_one_statement() {
        assert!(parse("SELECT * FROM t; DELETE FROM t").is_err());
        assert!(parse("SELECT * FROM t;;").is_err());
        assert!(parse("INSERT INTO t VALUES (1); CREATE INDEX ON t (a)").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_script_splits_on_semicolons() {
        let script =
            parse_script("CREATE TABLE t (a, b); CREATE INDEX ON t (a);\n;; SELECT * FROM t;")
                .unwrap();
        assert_eq!(script.len(), 3);
        assert_eq!(script[0], parse("CREATE TABLE t (a, b)").unwrap());
        assert_eq!(script[1], parse("CREATE INDEX ON t (a)").unwrap());
        assert!(matches!(script[2], Stmt::Select { .. }));
        // One statement is a script of one; nothing at all is an empty one.
        assert_eq!(parse_script("DELETE FROM t").unwrap().len(), 1);
        assert!(parse_script("").unwrap().is_empty());
        assert!(parse_script(" ; ;").unwrap().is_empty());
        // Placeholders number per statement.
        let script = parse_script("DELETE FROM t WHERE a = ?; DELETE FROM t WHERE b = ?").unwrap();
        for stmt in script {
            let Stmt::Delete { filter, .. } = stmt else {
                panic!("expected delete")
            };
            assert_eq!(filter.conjuncts[0].rhs, Expr::Param(0));
        }
    }

    #[test]
    fn parse_script_fails_whole_on_one_bad_statement() {
        assert!(parse_script("CREATE TABLE t (a); CREATE VIEW v").is_err());
        assert!(parse_script("BOGUS; CREATE TABLE t (a)").is_err());
        // Statements need a separator.
        assert!(parse_script("CREATE TABLE t (a) CREATE INDEX ON t (a)").is_err());
    }

    #[test]
    fn param_indices_count_up() {
        let stmt = parse("UPDATE t SET a = ? WHERE b = ? AND c = ?").unwrap();
        if let Stmt::Update { sets, filter, .. } = stmt {
            assert_eq!(sets[0].1, Expr::Param(0));
            assert_eq!(filter.conjuncts[0].rhs, Expr::Param(1));
            assert_eq!(filter.conjuncts[1].rhs, Expr::Param(2));
        } else {
            panic!("expected update");
        }
    }
}
