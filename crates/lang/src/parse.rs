//! Recursive-descent parser for query scripts.

use crate::ast::{AstOp, Cond, CondSide, QueryExpr, Script, Statement};
use crate::lex::{lex, LangError, Tok, Token};
use cqa_num::Rat;

/// Parses a whole script.
pub fn parse_script(input: &str) -> Result<Script, LangError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut script = Script::default();
    loop {
        p.skip_newlines();
        if p.peek_is(&Tok::Eof) {
            return Ok(script);
        }
        script.statements.push(p.statement()?);
    }
}

pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: usize,
}

impl Parser {
    pub(crate) fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    pub(crate) fn peek_is(&self, tok: &Tok) -> bool {
        &self.peek().tok == tok
    }

    pub(crate) fn next(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn err(&self, msg: impl Into<String>) -> LangError {
        let t = self.peek();
        LangError::new(t.line, t.col, msg)
    }

    pub(crate) fn expect(&mut self, tok: Tok) -> Result<Token, LangError> {
        if self.peek().tok == tok {
            Ok(self.next())
        } else {
            Err(self.err(format!("expected {}, found {}", tok, self.peek().tok)))
        }
    }

    pub(crate) fn ident(&mut self) -> Result<String, LangError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                self.next();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other))),
        }
    }

    /// Consumes an identifier that must equal the given keyword
    /// (case-insensitive).
    pub(crate) fn keyword(&mut self, kw: &str) -> Result<(), LangError> {
        match &self.peek().tok {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => {
                self.next();
                Ok(())
            }
            other => Err(self.err(format!("expected keyword {:?}, found {}", kw, other))),
        }
    }

    pub(crate) fn peek_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    pub(crate) fn skip_newlines(&mut self) {
        while self.peek_is(&Tok::Newline) {
            self.next();
        }
    }

    pub(crate) fn number(&mut self) -> Result<Rat, LangError> {
        // [-] NUM [/ NUM]
        let neg = if self.peek_is(&Tok::Minus) {
            self.next();
            true
        } else {
            false
        };
        let n = self.raw_number()?;
        Ok(if neg { -n } else { n })
    }

    fn statement(&mut self) -> Result<Statement, LangError> {
        let line = self.peek().line;
        // Data-definition commands start with a keyword, not `NAME =`.
        if self.peek_keyword("create") {
            self.next();
            self.keyword("relation")?;
            let name = self.ident()?;
            let schema = crate::schema_def::parse_schema_block(self)?;
            self.end_of_statement()?;
            return Ok(Statement::CreateRelation { name, schema, line });
        }
        if self.peek_keyword("insert") {
            self.next();
            self.keyword("into")?;
            let name = self.ident()?;
            let conds = crate::schema_def::parse_tuple_block(self)?;
            self.end_of_statement()?;
            return Ok(Statement::Insert { name, conds, line });
        }
        if self.peek_keyword("drop") {
            self.next();
            let name = self.ident()?;
            self.end_of_statement()?;
            return Ok(Statement::Drop { name, line });
        }
        let target = self.ident()?;
        self.expect(Tok::Eq)?;
        let expr = self.query_expr()?;
        self.end_of_statement()?;
        Ok(Statement::Query { target, expr, line })
    }

    fn end_of_statement(&mut self) -> Result<(), LangError> {
        if !self.peek_is(&Tok::Eof) {
            self.expect(Tok::Newline)?;
        }
        Ok(())
    }

    fn query_expr(&mut self) -> Result<QueryExpr, LangError> {
        let head = match &self.peek().tok {
            Tok::Ident(s) => s.to_ascii_lowercase(),
            other => return Err(self.err(format!("expected an operator keyword, found {}", other))),
        };
        match head.as_str() {
            "select" => {
                self.next();
                let mut conds = vec![self.condition()?];
                while self.peek_is(&Tok::Comma) {
                    self.next();
                    conds.push(self.condition()?);
                }
                self.keyword("from")?;
                let input = self.ident()?;
                Ok(QueryExpr::Select { conds, input })
            }
            "project" => {
                self.next();
                let input = self.ident()?;
                self.keyword("on")?;
                let mut attrs = vec![self.ident()?];
                while self.peek_is(&Tok::Comma) {
                    self.next();
                    attrs.push(self.ident()?);
                }
                Ok(QueryExpr::Project { input, attrs })
            }
            "join" | "union" | "diff" | "distance" => {
                self.next();
                let a = self.ident()?;
                self.keyword("and")?;
                let b = self.ident()?;
                Ok(match head.as_str() {
                    "join" => QueryExpr::Join(a, b),
                    "union" => QueryExpr::Union(a, b),
                    "diff" => QueryExpr::Diff(a, b),
                    _ => QueryExpr::Distance(a, b),
                })
            }
            "spatial" => {
                self.next();
                let name = self.ident()?;
                Ok(QueryExpr::SpatialScan(name))
            }
            "rename" => {
                self.next();
                let from = self.ident()?;
                self.keyword("to")?;
                let to = self.ident()?;
                self.keyword("in")?;
                let input = self.ident()?;
                Ok(QueryExpr::Rename { from, to, input })
            }
            "bufferjoin" => {
                self.next();
                let a = self.ident()?;
                self.keyword("and")?;
                let b = self.ident()?;
                self.keyword("distance")?;
                let d = self.number()?;
                if d.is_negative() {
                    return Err(self.err("distance must be non-negative"));
                }
                Ok(QueryExpr::BufferJoin(a, b, d))
            }
            "knearest" => {
                self.next();
                let a = self.ident()?;
                self.keyword("and")?;
                let b = self.ident()?;
                self.keyword("k")?;
                let k = self.number()?;
                if !k.is_integer() || !k.is_positive() {
                    return Err(self.err("k must be a positive integer"));
                }
                let k = k.numer().to_i64().filter(|v| *v > 0).ok_or_else(|| {
                    self.err("k out of range")
                })? as usize;
                Ok(QueryExpr::KNearest(a, b, k))
            }
            other => Err(self.err(format!(
                "unknown operator {:?} (expected select/project/join/union/diff/rename/spatial/bufferjoin/knearest/distance)",
                other
            ))),
        }
    }

    pub(crate) fn condition(&mut self) -> Result<Cond, LangError> {
        let lhs = self.cond_side()?;
        let op = match self.next() {
            Token { tok: Tok::Eq, .. } => AstOp::Eq,
            Token { tok: Tok::Ne, .. } => AstOp::Ne,
            Token { tok: Tok::Le, .. } => AstOp::Le,
            Token { tok: Tok::Lt, .. } => AstOp::Lt,
            Token { tok: Tok::Ge, .. } => AstOp::Ge,
            Token { tok: Tok::Gt, .. } => AstOp::Gt,
            t => {
                return Err(LangError::new(
                    t.line,
                    t.col,
                    format!("expected a comparison operator, found {}", t.tok),
                ))
            }
        };
        let rhs = self.cond_side()?;
        Ok(Cond { lhs, op, rhs })
    }

    fn cond_side(&mut self) -> Result<CondSide, LangError> {
        if let Tok::Str(s) = &self.peek().tok {
            let s = s.clone();
            self.next();
            return Ok(CondSide::Str(s));
        }
        self.linear()
    }

    /// `term (('+'|'-') term)*` where
    /// `term := NUM ['/' NUM] ['*' IDENT] | IDENT`.
    fn linear(&mut self) -> Result<CondSide, LangError> {
        let mut terms: Vec<(String, Rat)> = Vec::new();
        let mut constant = Rat::zero();
        let mut sign = Rat::one();
        loop {
            // Unary signs before the term.
            loop {
                if self.peek_is(&Tok::Minus) {
                    self.next();
                    sign = -sign;
                } else if self.peek_is(&Tok::Plus) {
                    self.next();
                } else {
                    break;
                }
            }
            match &self.peek().tok {
                Tok::Ident(name) => {
                    let name = name.clone();
                    self.next();
                    terms.push((name, sign.clone()));
                }
                Tok::Num(_) => {
                    let n = self.raw_number()?;
                    if self.peek_is(&Tok::Star) {
                        self.next();
                        let name = self.ident()?;
                        terms.push((name, &sign * &n));
                    } else {
                        constant += &(&sign * &n);
                    }
                }
                other => {
                    return Err(self.err(format!(
                        "expected an attribute or number, found {}",
                        other
                    )))
                }
            }
            match &self.peek().tok {
                Tok::Plus => {
                    self.next();
                    sign = Rat::one();
                }
                Tok::Minus => {
                    self.next();
                    sign = -Rat::one();
                }
                _ => break,
            }
        }
        Ok(CondSide::Linear { terms, constant })
    }

    /// `NUM ['/' NUM]` without a unary sign.
    fn raw_number(&mut self) -> Result<Rat, LangError> {
        let n = match self.next() {
            Token { tok: Tok::Num(n), .. } => n,
            t => {
                return Err(LangError::new(
                    t.line,
                    t.col,
                    format!("expected number, found {}", t.tok),
                ))
            }
        };
        if self.peek_is(&Tok::Slash) {
            self.next();
            match self.next() {
                Token { tok: Tok::Num(d), .. } if !d.is_zero() => Ok(n / d),
                t => Err(LangError::new(t.line, t.col, "expected nonzero denominator".to_string())),
            }
        } else {
            Ok(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query1() {
        // Query 1 of §3.3.
        let script = parse_script(
            "R0 = select landID = \"A\" from Landownership\n\
             R1 = project R0 on name, t\n",
        )
        .unwrap();
        assert_eq!(script.statements.len(), 2);
        match script.statements[0].query_expr().unwrap() {
            QueryExpr::Select { conds, input } => {
                assert_eq!(input, "Landownership");
                assert_eq!(conds.len(), 1);
                assert_eq!(conds[0].rhs, CondSide::Str("A".into()));
            }
            other => panic!("{:?}", other),
        }
        match script.statements[1].query_expr().unwrap() {
            QueryExpr::Project { input, attrs } => {
                assert_eq!(input, "R0");
                assert_eq!(attrs, &["name", "t"]);
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn parses_multi_condition_select() {
        let s = parse_script("R = select t >= 4, t <= 9, x + 2*y < 3.5 from H\n").unwrap();
        match s.statements[0].query_expr().unwrap() {
            QueryExpr::Select { conds, .. } => {
                assert_eq!(conds.len(), 3);
                match &conds[2].lhs {
                    CondSide::Linear { terms, .. } => {
                        assert_eq!(terms.len(), 2);
                        assert_eq!(terms[1], ("y".to_string(), Rat::from_int(2)));
                    }
                    other => panic!("{:?}", other),
                }
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn parses_binary_and_spatial_ops() {
        let s = parse_script(
            "A = join X and Y\nB = union A and A\nC = diff A and B\n\
             D = rename t to time in C\nE = bufferjoin R and S distance 2.5\n\
             F = knearest R and S k 3\nG = distance R and S\n",
        )
        .unwrap();
        assert_eq!(s.statements.len(), 7);
        assert_eq!(*s.statements[4].query_expr().unwrap(), QueryExpr::BufferJoin("R".into(), "S".into(), Rat::from_pair(5, 2)));
        assert_eq!(*s.statements[5].query_expr().unwrap(), QueryExpr::KNearest("R".into(), "S".into(), 3));
        assert_eq!(*s.statements[6].query_expr().unwrap(), QueryExpr::Distance("R".into(), "S".into()));
    }

    #[test]
    fn negative_and_fractional_numbers() {
        let s = parse_script("R = select x >= -2, y < 1/3 from H\n").unwrap();
        match s.statements[0].query_expr().unwrap() {
            QueryExpr::Select { conds, .. } => {
                assert_eq!(
                    conds[0].rhs,
                    CondSide::Linear { terms: vec![], constant: Rat::from_int(-2) }
                );
                assert_eq!(
                    conds[1].rhs,
                    CondSide::Linear { terms: vec![], constant: Rat::from_pair(1, 3) }
                );
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn attr_to_attr_condition() {
        let s = parse_script("R = select x = y from H\n").unwrap();
        match s.statements[0].query_expr().unwrap() {
            QueryExpr::Select { conds, .. } => {
                assert_eq!(conds[0].op, AstOp::Eq);
                assert!(matches!(&conds[0].lhs, CondSide::Linear { terms, .. } if terms.len() == 1));
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn error_reporting() {
        let err = parse_script("R = frobnicate X and Y\n").unwrap_err();
        assert!(err.msg.contains("unknown operator"));
        let err = parse_script("R = select from H\n").unwrap_err();
        assert!(err.line == 1);
        let err = parse_script("R = knearest A and B k 0\n").unwrap_err();
        assert!(err.msg.contains("positive integer"));
        let err = parse_script("R = knearest A and B k 2.5\n").unwrap_err();
        assert!(err.msg.contains("positive integer"));
    }

    #[test]
    fn comments_between_statements() {
        let s = parse_script("# Query 2\nR0 = join Hurricane and Land\n# step two\nR1 = project R0 on landID\n").unwrap();
        assert_eq!(s.statements.len(), 2);
    }
}
