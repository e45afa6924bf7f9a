//! Scalar expression evaluation with SQL three-valued logic.

use crate::context::ExecContext;
use dhqp_optimizer::scalar::{ArithOp, CmpOp, ScalarExpr};
use dhqp_optimizer::ColumnId;
use dhqp_types::{DhqpError, Result, Row, Value};
use std::collections::HashMap;

/// Resolution environment for one row: column positions within the row,
/// plus the execution context for parameters and correlation bindings.
pub struct RowEnv<'a> {
    pub positions: &'a HashMap<ColumnId, usize>,
    pub row: &'a Row,
    pub ctx: &'a ExecContext,
}

impl<'a> RowEnv<'a> {
    fn column(&self, id: ColumnId) -> Result<Value> {
        if let Some(&pos) = self.positions.get(&id) {
            return Ok(self.row.values[pos].clone());
        }
        // Correlation: the column belongs to an outer row.
        if let Some(v) = self.ctx.binding(id.0) {
            return Ok(v.clone());
        }
        Err(DhqpError::Execute(format!("unresolved column #{}", id.0)))
    }
}

/// Build the `ColumnId → position` map for an operator's input.
pub fn positions_of(output: &[ColumnId]) -> HashMap<ColumnId, usize> {
    output.iter().enumerate().map(|(i, c)| (*c, i)).collect()
}

/// Evaluate an expression to a value (NULL propagates).
pub fn eval_expr(expr: &ScalarExpr, env: &RowEnv<'_>) -> Result<Value> {
    match expr {
        ScalarExpr::Literal(v) => Ok(v.clone()),
        ScalarExpr::Column(c) => env.column(*c),
        ScalarExpr::Param(p) => env.ctx.param(p).cloned(),
        ScalarExpr::Arith { op, left, right } => {
            let l = eval_expr(left, env)?;
            let r = eval_expr(right, env)?;
            match op {
                ArithOp::Add => l.add(&r),
                ArithOp::Sub => l.sub(&r),
                ArithOp::Mul => l.mul(&r),
                ArithOp::Div => l.div(&r),
                ArithOp::Mod => match (l, r) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Int(a), Value::Int(b)) if b != 0 => Ok(Value::Int(a % b)),
                    (Value::Int(_), Value::Int(_)) => {
                        Err(DhqpError::Execute("modulo by zero".into()))
                    }
                    (a, b) => Err(DhqpError::Type(format!(
                        "cannot apply % to {} and {}",
                        a.type_name(),
                        b.type_name()
                    ))),
                },
            }
        }
        ScalarExpr::Cast { expr, to } => eval_expr(expr, env)?.cast(*to),
        ScalarExpr::Func { name, args } => eval_function(name, args, env),
        // Boolean-valued expressions evaluate through the predicate path.
        other => Ok(match eval_bool(other, env)? {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        }),
    }
}

/// Evaluate a predicate: UNKNOWN (NULL) collapses to `false`, per SQL
/// WHERE-clause semantics.
pub fn eval_predicate(expr: &ScalarExpr, env: &RowEnv<'_>) -> Result<bool> {
    Ok(eval_bool(expr, env)?.unwrap_or(false))
}

/// Three-valued boolean evaluation: `None` = UNKNOWN.
fn eval_bool(expr: &ScalarExpr, env: &RowEnv<'_>) -> Result<Option<bool>> {
    match expr {
        ScalarExpr::Literal(Value::Null) => Ok(None),
        ScalarExpr::Literal(Value::Bool(b)) => Ok(Some(*b)),
        ScalarExpr::Cmp { op, left, right } => {
            let l = eval_expr(left, env)?;
            let r = eval_expr(right, env)?;
            Ok(l.sql_cmp(&r).map(|ord| match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::Neq => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
            }))
        }
        ScalarExpr::And(list) => {
            let mut saw_unknown = false;
            for e in list {
                match eval_bool(e, env)? {
                    Some(false) => return Ok(Some(false)),
                    None => saw_unknown = true,
                    Some(true) => {}
                }
            }
            Ok(if saw_unknown { None } else { Some(true) })
        }
        ScalarExpr::Or(list) => {
            let mut saw_unknown = false;
            for e in list {
                match eval_bool(e, env)? {
                    Some(true) => return Ok(Some(true)),
                    None => saw_unknown = true,
                    Some(false) => {}
                }
            }
            Ok(if saw_unknown { None } else { Some(false) })
        }
        ScalarExpr::Not(inner) => Ok(eval_bool(inner, env)?.map(|b| !b)),
        ScalarExpr::IsNull { expr, negated } => {
            let v = eval_expr(expr, env)?;
            Ok(Some(v.is_null() != *negated))
        }
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(expr, env)?;
            match v {
                Value::Null => Ok(None),
                Value::Str(s) => Ok(Some(like_match(&s, pattern) != *negated)),
                other => Err(DhqpError::Type(format!(
                    "LIKE requires a string, got {}",
                    other.type_name()
                ))),
            }
        }
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => Ok(list
            .contains(&eval_expr(expr, env)?)
            .map(|hit| hit != *negated)),
        ScalarExpr::ParamInDomain { param, domain } => {
            let v = env.ctx.param(param)?;
            Ok(Some(domain.contains(v)))
        }
        // Value-typed expression in boolean position: truthiness of BIT.
        other => {
            let v = eval_expr(other, env)?;
            match v {
                Value::Null => Ok(None),
                Value::Bool(b) => Ok(Some(b)),
                other => Err(DhqpError::Type(format!(
                    "expected boolean, got {}",
                    other.type_name()
                ))),
            }
        }
    }
}

/// Scalar function evaluation (whitelisted set).
fn eval_function(name: &str, args: &[ScalarExpr], env: &RowEnv<'_>) -> Result<Value> {
    let eval_arg = |i: usize| -> Result<Value> {
        args.get(i)
            .ok_or_else(|| DhqpError::Execute(format!("{name}: missing argument {i}")))
            .and_then(|a| eval_expr(a, env))
    };
    match name {
        "UPPER" => match eval_arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
            v => Err(DhqpError::Type(format!(
                "UPPER requires a string, got {}",
                v.type_name()
            ))),
        },
        "LOWER" => match eval_arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
            v => Err(DhqpError::Type(format!(
                "LOWER requires a string, got {}",
                v.type_name()
            ))),
        },
        "ABS" => match eval_arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            v => Err(DhqpError::Type(format!(
                "ABS requires a number, got {}",
                v.type_name()
            ))),
        },
        "LEN" => match eval_arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            v => Err(DhqpError::Type(format!(
                "LEN requires a string, got {}",
                v.type_name()
            ))),
        },
        // DATE(d, n): shift a date by n days (the paper's §2.4 helper).
        "DATE" => {
            let d = eval_arg(0)?;
            let n = eval_arg(1)?;
            d.add(&n)
        }
        other => Err(DhqpError::Unsupported(format!("unknown function {other}"))),
    }
}

pub use dhqp_types::value::like_match;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_storage::StorageEngine;
    use dhqp_types::IntervalSet;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let catalog = Arc::new(TestCatalog::with_local(Arc::new(StorageEngine::new(
            "local",
        ))));
        let mut params = HashMap::new();
        params.insert("p".to_string(), Value::Int(60));
        ExecContext::new(
            catalog,
            params,
            Arc::new(dhqp_optimizer::props::ColumnRegistry::new()),
        )
    }

    fn env_for<'a>(
        positions: &'a HashMap<ColumnId, usize>,
        row: &'a Row,
        ctx: &'a ExecContext,
    ) -> RowEnv<'a> {
        RowEnv {
            positions,
            row,
            ctx,
        }
    }

    #[test]
    fn comparisons_and_null_semantics() {
        let ctx = ctx();
        let positions = positions_of(&[ColumnId(0), ColumnId(1)]);
        let row = Row::new(vec![Value::Int(5), Value::Null]);
        let env = env_for(&positions, &row, &ctx);
        let gt = ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::Column(ColumnId(0)),
            ScalarExpr::literal(Value::Int(3)),
        );
        assert!(eval_predicate(&gt, &env).unwrap());
        // NULL comparison → UNKNOWN → filter false.
        let null_cmp = ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::Column(ColumnId(1)),
            ScalarExpr::literal(Value::Int(3)),
        );
        assert!(!eval_predicate(&null_cmp, &env).unwrap());
        // ... but IS NULL sees it.
        let is_null = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::Column(ColumnId(1))),
            negated: false,
        };
        assert!(eval_predicate(&is_null, &env).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let ctx = ctx();
        let positions = positions_of(&[ColumnId(0)]);
        let row = Row::new(vec![Value::Null]);
        let env = env_for(&positions, &row, &ctx);
        let unknown = ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::Column(ColumnId(0)),
            ScalarExpr::literal(Value::Int(1)),
        );
        // FALSE AND UNKNOWN = FALSE (not an error, not unknown).
        let f = ScalarExpr::literal(Value::Bool(false));
        let and = ScalarExpr::And(vec![f.clone(), unknown.clone()]);
        assert_eq!(eval_bool(&and, &env).unwrap(), Some(false));
        // TRUE OR UNKNOWN = TRUE.
        let t = ScalarExpr::literal(Value::Bool(true));
        let or = ScalarExpr::Or(vec![t, unknown.clone()]);
        assert_eq!(eval_bool(&or, &env).unwrap(), Some(true));
        // TRUE AND UNKNOWN = UNKNOWN.
        let and2 = ScalarExpr::And(vec![ScalarExpr::literal(Value::Bool(true)), unknown]);
        assert_eq!(eval_bool(&and2, &env).unwrap(), None);
    }

    #[test]
    fn in_list_null_semantics() {
        let ctx = ctx();
        let positions = positions_of(&[ColumnId(0)]);
        let row = Row::new(vec![Value::Int(9)]);
        let env = env_for(&positions, &row, &ctx);
        // 9 NOT IN (1, NULL) is UNKNOWN, not TRUE.
        let e = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(ColumnId(0))),
            list: vec![Value::Int(1), Value::Null].into(),
            negated: true,
        };
        assert_eq!(eval_bool(&e, &env).unwrap(), None);
        // 1 IN (1, NULL) is TRUE.
        let row = Row::new(vec![Value::Int(1)]);
        let env = env_for(&positions, &row, &ctx);
        let e = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(ColumnId(0))),
            list: vec![Value::Int(1), Value::Null].into(),
            negated: false,
        };
        assert_eq!(eval_bool(&e, &env).unwrap(), Some(true));
    }

    #[test]
    fn params_and_startup_domains() {
        let ctx = ctx();
        let positions = HashMap::new();
        let row = Row::new(vec![]);
        let env = env_for(&positions, &row, &ctx);
        // @p = 60; domain (50, +inf) passes.
        let dom = IntervalSet::single(dhqp_types::Interval::greater_than(Value::Int(50)));
        let e = ScalarExpr::ParamInDomain {
            param: "p".into(),
            domain: dom,
        };
        assert!(eval_predicate(&e, &env).unwrap());
        let dom = IntervalSet::single(dhqp_types::Interval::less_than(Value::Int(50)));
        let e = ScalarExpr::ParamInDomain {
            param: "p".into(),
            domain: dom,
        };
        assert!(!eval_predicate(&e, &env).unwrap());
    }

    #[test]
    fn correlation_bindings_resolve_missing_columns() {
        let ctx = ctx().with_bindings([(7u32, Value::Int(42))].into_iter().collect());
        let positions = positions_of(&[ColumnId(0)]);
        let row = Row::new(vec![Value::Int(1)]);
        let env = env_for(&positions, &row, &ctx);
        let e = ScalarExpr::Column(ColumnId(7));
        assert_eq!(eval_expr(&e, &env).unwrap(), Value::Int(42));
        let missing = ScalarExpr::Column(ColumnId(9));
        assert!(eval_expr(&missing, &env).is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(!like_match("hello", "H%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("xyz", "%"));
        assert!(like_match("ab", "a%%b"));
    }

    #[test]
    fn functions() {
        let ctx = ctx();
        let positions = HashMap::new();
        let row = Row::new(vec![]);
        let env = env_for(&positions, &row, &ctx);
        let upper = ScalarExpr::Func {
            name: "UPPER".into(),
            args: vec![ScalarExpr::literal(Value::Str("abc".into()))],
        };
        assert_eq!(eval_expr(&upper, &env).unwrap(), Value::Str("ABC".into()));
        let len = ScalarExpr::Func {
            name: "LEN".into(),
            args: vec![ScalarExpr::literal(Value::Str("abcd".into()))],
        };
        assert_eq!(eval_expr(&len, &env).unwrap(), Value::Int(4));
        let date = ScalarExpr::Func {
            name: "DATE".into(),
            args: vec![
                ScalarExpr::literal(Value::Date(100)),
                ScalarExpr::literal(Value::Int(-2)),
            ],
        };
        assert_eq!(eval_expr(&date, &env).unwrap(), Value::Date(98));
        let nope = ScalarExpr::Func {
            name: "FROBNICATE".into(),
            args: vec![],
        };
        assert!(eval_expr(&nope, &env).is_err());
    }

    #[test]
    fn arithmetic_and_cast() {
        let ctx = ctx();
        let positions = HashMap::new();
        let row = Row::new(vec![]);
        let env = env_for(&positions, &row, &ctx);
        let e = ScalarExpr::Arith {
            op: ArithOp::Mod,
            left: Box::new(ScalarExpr::literal(Value::Int(10))),
            right: Box::new(ScalarExpr::literal(Value::Int(3))),
        };
        assert_eq!(eval_expr(&e, &env).unwrap(), Value::Int(1));
        let cast = ScalarExpr::Cast {
            expr: Box::new(ScalarExpr::literal(Value::Str("12".into()))),
            to: dhqp_types::DataType::Int,
        };
        assert_eq!(eval_expr(&cast, &env).unwrap(), Value::Int(12));
    }
}
