//! The atomic operation algebra.
//!
//! §2 of the paper gives transactions four kinds of interactions with the
//! system: shared-lock requests (`LS`), exclusive-lock requests (`LX`),
//! unlock requests (`U`), and reads/writes of global entities; plus internal
//! computation on local variables. We model each as one [`Op`] — executing
//! one `Op` advances the transaction by exactly one state index, which is
//! what makes the paper's state-difference cost function meaningful.

use crate::ids::{EntityId, VarId};
use crate::value::Value;
use std::fmt;

/// Lock modes of §2: exclusive for read/write access, shared for read-only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Shared lock (`LS`): many readers may hold it simultaneously.
    Shared,
    /// Exclusive lock (`LX`): at most one holder; permits writes.
    Exclusive,
}

impl LockMode {
    /// Whether a new lock in mode `self` can coexist with a held lock in
    /// mode `other` on the same entity.
    #[inline]
    pub fn compatible_with(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// Whether this mode permits writing the entity.
    #[inline]
    pub fn allows_write(self) -> bool {
        matches!(self, LockMode::Exclusive)
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => write!(f, "S"),
            LockMode::Exclusive => write!(f, "X"),
        }
    }
}

/// A side-effect-free expression over a transaction's local variables.
///
/// Expressions give programs real data semantics, so the test oracles can
/// observe whether a rollback restored *values* correctly — not merely lock
/// bookkeeping.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// The current value of a local variable.
    Var(VarId),
    /// Sum of two sub-expressions (wrapping).
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two sub-expressions (wrapping).
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two sub-expressions (wrapping).
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor: `lhs + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Add(Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor: `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor: `lhs * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Const(Value::new(v))
    }

    /// Convenience constructor for a variable reference.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Evaluates the expression against a local-variable environment.
    ///
    /// Out-of-range variable references evaluate to [`Value::ZERO`]; the
    /// [validator](crate::validate) rejects such programs up front, so this
    /// is purely defensive.
    pub fn eval(&self, locals: &[Value]) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(id) => locals.get(id.index()).copied().unwrap_or(Value::ZERO),
            Expr::Add(a, b) => a.eval(locals) + b.eval(locals),
            Expr::Sub(a, b) => a.eval(locals) - b.eval(locals),
            Expr::Mul(a, b) => a.eval(locals) * b.eval(locals),
        }
    }

    /// All local variables the expression reads.
    pub fn variables(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(id) => out.push(*id),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Maximum variable index referenced, if any.
    pub fn max_var(&self) -> Option<VarId> {
        self.variables().into_iter().max()
    }
}

/// One atomic operation of a transaction (§2).
///
/// Executing any `Op` advances the transaction's state index by one.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `LS(A)` — request a shared lock on entity `A`.
    LockShared(EntityId),
    /// `LX(A)` — request an exclusive lock on entity `A`.
    LockExclusive(EntityId),
    /// `U(A)` — release the lock held on entity `A`; under deferred update
    /// this publishes the final local value of `A` to the database.
    Unlock(EntityId),
    /// Read the (locally visible) value of a locked entity into a local
    /// variable.
    Read {
        /// Entity to read; must be lock-protected at execution time.
        entity: EntityId,
        /// Local variable receiving the value.
        into: VarId,
    },
    /// Write an expression's value to an exclusively locked entity
    /// (buffered in the transaction's local copy until unlock).
    Write {
        /// Entity to write; must be exclusively locked at execution time.
        entity: EntityId,
        /// Expression over local variables producing the new value.
        expr: Expr,
    },
    /// Assign an expression's value to a local variable (pure computation).
    Assign {
        /// Target local variable.
        var: VarId,
        /// Expression over local variables producing the new value.
        expr: Expr,
    },
    /// Internal computation that reads local variables but stores nothing:
    /// it advances the state index (it is an atomic operation) without
    /// affecting restorability. Used to model computation time and to pad
    /// scenario transactions to exact state indices.
    Compute(Expr),
    /// Terminate successfully, releasing all remaining locks ("the system
    /// may equivalently release any entities which a transaction has failed
    /// to unlock at the time the transaction terminates", §1).
    Commit,
}

impl Op {
    /// Whether this operation is a lock request (`LS` or `LX`).
    #[inline]
    pub fn is_lock_request(&self) -> bool {
        matches!(self, Op::LockShared(_) | Op::LockExclusive(_))
    }

    /// The entity and mode requested, if this is a lock request.
    #[inline]
    pub fn lock_request(&self) -> Option<(EntityId, LockMode)> {
        match self {
            Op::LockShared(e) => Some((*e, LockMode::Shared)),
            Op::LockExclusive(e) => Some((*e, LockMode::Exclusive)),
            _ => None,
        }
    }

    /// The entity unlocked, if this is an unlock.
    #[inline]
    pub fn unlock_target(&self) -> Option<EntityId> {
        match self {
            Op::Unlock(e) => Some(*e),
            _ => None,
        }
    }

    /// The entity touched by this operation, if any.
    pub fn entity(&self) -> Option<EntityId> {
        match self {
            Op::LockShared(e)
            | Op::LockExclusive(e)
            | Op::Unlock(e)
            | Op::Read { entity: e, .. }
            | Op::Write { entity: e, .. } => Some(*e),
            Op::Assign { .. } | Op::Compute(_) | Op::Commit => None,
        }
    }

    /// Whether this operation writes a global entity.
    #[inline]
    pub fn is_global_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }

    /// Whether this operation writes a local variable (reads into locals
    /// count: they overwrite the previous local value, which matters for
    /// restorability, §4).
    #[inline]
    pub fn written_var(&self) -> Option<VarId> {
        match self {
            Op::Read { into, .. } => Some(*into),
            Op::Assign { var, .. } => Some(*var),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::LockShared(e) => write!(f, "LS({e})"),
            Op::LockExclusive(e) => write!(f, "LX({e})"),
            Op::Unlock(e) => write!(f, "U({e})"),
            Op::Read { entity, into } => write!(f, "{into} := R({entity})"),
            Op::Write { entity, .. } => write!(f, "W({entity})"),
            Op::Assign { var, .. } => write!(f, "{var} := <expr>"),
            Op::Compute(_) => write!(f, "compute"),
            Op::Commit => write!(f, "COMMIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_mode_compatibility_matrix() {
        use LockMode::*;
        assert!(Shared.compatible_with(Shared));
        assert!(!Shared.compatible_with(Exclusive));
        assert!(!Exclusive.compatible_with(Shared));
        assert!(!Exclusive.compatible_with(Exclusive));
        assert!(Exclusive.allows_write());
        assert!(!Shared.allows_write());
    }

    #[test]
    fn expr_evaluation() {
        let locals = [Value::new(3), Value::new(4)];
        let e =
            Expr::add(Expr::mul(Expr::var(VarId::new(0)), Expr::var(VarId::new(1))), Expr::lit(5));
        assert_eq!(e.eval(&locals), Value::new(17));
        let d = Expr::sub(Expr::var(VarId::new(1)), Expr::var(VarId::new(0)));
        assert_eq!(d.eval(&locals), Value::new(1));
    }

    #[test]
    fn expr_out_of_range_var_is_zero() {
        let e = Expr::var(VarId::new(9));
        assert_eq!(e.eval(&[]), Value::ZERO);
    }

    #[test]
    fn expr_variable_collection_dedups_and_sorts() {
        let e = Expr::add(
            Expr::var(VarId::new(2)),
            Expr::mul(Expr::var(VarId::new(0)), Expr::var(VarId::new(2))),
        );
        assert_eq!(e.variables(), vec![VarId::new(0), VarId::new(2)]);
        assert_eq!(e.max_var(), Some(VarId::new(2)));
        assert_eq!(Expr::lit(1).max_var(), None);
    }

    #[test]
    fn op_classification() {
        let ls = Op::LockShared(EntityId::new(1));
        let lx = Op::LockExclusive(EntityId::new(2));
        let un = Op::Unlock(EntityId::new(1));
        assert!(ls.is_lock_request());
        assert!(lx.is_lock_request());
        assert!(!un.is_lock_request());
        assert_eq!(ls.lock_request(), Some((EntityId::new(1), LockMode::Shared)));
        assert_eq!(lx.lock_request(), Some((EntityId::new(2), LockMode::Exclusive)));
        assert_eq!(un.unlock_target(), Some(EntityId::new(1)));
        assert_eq!(
            Op::Read { entity: EntityId::new(3), into: VarId::new(0) }.entity(),
            Some(EntityId::new(3))
        );
        assert_eq!(Op::Commit.entity(), None);
    }

    #[test]
    fn written_var_covers_reads_and_assigns() {
        let r = Op::Read { entity: EntityId::new(0), into: VarId::new(1) };
        let a = Op::Assign { var: VarId::new(2), expr: Expr::lit(0) };
        let w = Op::Write { entity: EntityId::new(0), expr: Expr::lit(0) };
        assert_eq!(r.written_var(), Some(VarId::new(1)));
        assert_eq!(a.written_var(), Some(VarId::new(2)));
        assert_eq!(w.written_var(), None);
        assert!(w.is_global_write());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Op::LockShared(EntityId::new(0)).to_string(), "LS(a)");
        assert_eq!(Op::LockExclusive(EntityId::new(1)).to_string(), "LX(b)");
        assert_eq!(Op::Unlock(EntityId::new(2)).to_string(), "U(c)");
        assert_eq!(Op::Commit.to_string(), "COMMIT");
    }
}
