//! Runtime algebraic objects: `GrB_BinaryOp`, `GrB_UnaryOp`,
//! `GrB_Monoid`, `GrB_Semiring` as *values* carrying their domains —
//! exactly the C API's shape, with `GrB_DOMAIN_MISMATCH` raised at
//! construction or call time instead of at compile time.
//!
//! A predefined operator is an opcode (`Code`); a user operator is a
//! closure over [`Value`]s. Either becomes a typed core operator for one
//! lane — `LaneOp`, `LaneUnary`, `LaneMonoid`, one type each per
//! lane element `Elem` — which evaluates the opcode natively on a
//! built-in domain. On the user-type lane an opcode dispatches on the
//! tag to that same typed implementation, so there is one arithmetic.

use std::borrow::Cow;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use graphblas_core::algebra::binary::BinaryOp;
use graphblas_core::algebra::indexop::{select_fn, IndexSelectOp};
use graphblas_core::algebra::monoid::Monoid;
use graphblas_core::algebra::semiring::SemiringDef;
use graphblas_core::algebra::unary::UnaryOp;
use graphblas_core::error::{Error, Result};
use graphblas_core::scalar::{AsBool, CastFrom, NumScalar};

use crate::value::{GrbType, Value};

type BinFn = Arc<dyn Fn(&Value, &Value) -> Value + Send + Sync>;
type UnFn = Arc<dyn Fn(&Value) -> Value + Send + Sync>;

/// A predefined operator (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Code {
    Plus,
    Minus,
    Times,
    Div,
    Min,
    Max,
    First,
    Second,
    Eq,
    LAnd,
    LOr,
    LXor,
    Identity,
    AInv,
    MInv,
    LNot,
    /// A user closure (`f` on the operator).
    User,
}

/// `GrB_BinaryOp`: `<D1, D2, D3, ⊙>` with runtime domains.
#[derive(Clone)]
pub struct GrbBinaryOp {
    pub name: &'static str,
    pub d1: GrbType,
    pub d2: GrbType,
    pub d3: GrbType,
    code: Code,
    f: Option<BinFn>,
}

impl fmt::Debug for GrbBinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}<{},{},{}>",
            self.name,
            self.d1.c_name(),
            self.d2.c_name(),
            self.d3.c_name()
        )
    }
}

impl GrbBinaryOp {
    /// `GrB_BinaryOp_new`: a user-defined operator from a closure.
    pub fn new(
        name: &'static str,
        d1: GrbType,
        d2: GrbType,
        d3: GrbType,
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        GrbBinaryOp {
            name,
            d1,
            d2,
            d3,
            code: Code::User,
            f: Some(Arc::new(f)),
        }
    }

    fn code(name: &'static str, d: GrbType, d3: GrbType, code: Code) -> Self {
        let (d1, d2, f) = (d, d, None);
        GrbBinaryOp {
            name,
            d1,
            d2,
            d3,
            code,
            f,
        }
    }

    // --- predefined operators (Table IV) ---

    /// `GrB_PLUS_T`.
    pub fn plus(ty: GrbType) -> Result<Self> {
        numeric_binop(ty, "GrB_PLUS", Code::Plus)
    }

    /// `GrB_MINUS_T`.
    pub fn minus(ty: GrbType) -> Result<Self> {
        numeric_binop(ty, "GrB_MINUS", Code::Minus)
    }

    /// `GrB_TIMES_T`.
    pub fn times(ty: GrbType) -> Result<Self> {
        numeric_binop(ty, "GrB_TIMES", Code::Times)
    }

    /// `GrB_DIV_T`.
    pub fn div(ty: GrbType) -> Result<Self> {
        numeric_binop(ty, "GrB_DIV", Code::Div)
    }

    /// `GrB_MIN_T`.
    pub fn min(ty: GrbType) -> Result<Self> {
        numeric_binop(ty, "GrB_MIN", Code::Min)
    }

    /// `GrB_MAX_T`.
    pub fn max(ty: GrbType) -> Result<Self> {
        numeric_binop(ty, "GrB_MAX", Code::Max)
    }

    /// `GrB_FIRST_T`.
    pub fn first(ty: GrbType) -> Self {
        GrbBinaryOp::code("GrB_FIRST", ty, ty, Code::First)
    }

    /// `GrB_SECOND_T`.
    pub fn second(ty: GrbType) -> Self {
        GrbBinaryOp::code("GrB_SECOND", ty, ty, Code::Second)
    }

    /// `GrB_LAND`.
    pub fn land() -> Self {
        GrbBinaryOp::code("GrB_LAND", GrbType::Bool, GrbType::Bool, Code::LAnd)
    }

    /// `GrB_LOR`.
    pub fn lor() -> Self {
        GrbBinaryOp::code("GrB_LOR", GrbType::Bool, GrbType::Bool, Code::LOr)
    }

    /// `GrB_LXOR`.
    pub fn lxor() -> Self {
        GrbBinaryOp::code("GrB_LXOR", GrbType::Bool, GrbType::Bool, Code::LXor)
    }

    /// `GrB_EQ_T` (returns `GrB_BOOL`).
    pub fn eq(ty: GrbType) -> Self {
        GrbBinaryOp::code("GrB_EQ", ty, GrbType::Bool, Code::Eq)
    }

    /// `true` when the operator maps one domain to itself, so a call can
    /// run entirely in that domain's lane.
    pub(crate) fn is_uniform(&self) -> bool {
        self.d1 == self.d2 && self.d2 == self.d3
    }

    /// API check: this operator's input/output domains against actual
    /// argument domains.
    pub(crate) fn check_domains(&self, d1: GrbType, d2: GrbType, d3: GrbType) -> Result<()> {
        if (self.d1, self.d2, self.d3) != (d1, d2, d3) {
            return Err(Error::DomainMismatch(format!(
                "operator {self:?} applied to domains <{},{},{}>",
                d1.c_name(),
                d2.c_name(),
                d3.c_name()
            )));
        }
        Ok(())
    }

    /// API check for use as an accumulator into an output of domain
    /// `out_ty`: requires `d1 == d3 == out_ty` (the C accumulation rule),
    /// and the T-side operand (of the output's domain) must cast to `d2`.
    pub(crate) fn check_accum(&self, out_ty: GrbType) -> Result<()> {
        if self.d1 != out_ty || self.d3 != out_ty {
            return Err(Error::DomainMismatch(format!(
                "accumulator {self:?} cannot accumulate into domain {}",
                out_ty.c_name()
            )));
        }
        out_ty.expect_castable_to(self.d2, "accumulator operand")
    }
}

fn numeric_binop(ty: GrbType, name: &'static str, code: Code) -> Result<GrbBinaryOp> {
    if !ty.is_numeric() {
        return Err(Error::DomainMismatch(format!(
            "{name} is not defined for {}",
            ty.c_name()
        )));
    }
    Ok(GrbBinaryOp::code(name, ty, ty, code))
}

/// `GrB_UnaryOp`: `<D1, D2, f>` with runtime domains.
#[derive(Clone)]
pub struct GrbUnaryOp {
    pub name: &'static str,
    pub d1: GrbType,
    pub d2: GrbType,
    code: Code,
    f: Option<UnFn>,
}

impl fmt::Debug for GrbUnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<{:?},{:?}>", self.name, self.d1, self.d2)
    }
}

impl GrbUnaryOp {
    /// `GrB_UnaryOp_new`.
    pub fn new(
        name: &'static str,
        d1: GrbType,
        d2: GrbType,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        GrbUnaryOp {
            name,
            d1,
            d2,
            code: Code::User,
            f: Some(Arc::new(f)),
        }
    }

    fn code(name: &'static str, ty: GrbType, code: Code) -> Self {
        let (d1, d2, f) = (ty, ty, None);
        GrbUnaryOp {
            name,
            d1,
            d2,
            code,
            f,
        }
    }

    /// `GrB_IDENTITY_T` (the example's `GrB_IDENTITY_BOOL`, with the
    /// implicit input cast the paper relies on at Fig. 3 line 41).
    pub fn identity(ty: GrbType) -> Self {
        GrbUnaryOp::code("GrB_IDENTITY", ty, Code::Identity)
    }

    /// `GrB_MINV_T` (the example's `GrB_MINV_FP32`). On integers `1/0`
    /// is the domain's maximum.
    pub fn minv(ty: GrbType) -> Result<Self> {
        numeric_unop(ty, "GrB_MINV", Code::MInv)
    }

    /// `GrB_AINV_T` (wrapping on integers; floats keep the sign of zero).
    pub fn ainv(ty: GrbType) -> Result<Self> {
        numeric_unop(ty, "GrB_AINV", Code::AInv)
    }

    /// `GrB_LNOT`.
    pub fn lnot() -> Self {
        GrbUnaryOp::code("GrB_LNOT", GrbType::Bool, Code::LNot)
    }
}

fn numeric_unop(ty: GrbType, name: &'static str, code: Code) -> Result<GrbUnaryOp> {
    if !ty.is_numeric() {
        return Err(Error::DomainMismatch(format!(
            "{name} is not defined for {ty:?}"
        )));
    }
    Ok(GrbUnaryOp::code(name, ty, code))
}

/// `GrB_IndexUnaryOp` as used by `GrB_select`: the predefined selector
/// family, carried as a runtime value (structural selectors ignore the
/// domain; value selectors compare in the collection's own domain, the
/// thunk cast into it).
#[derive(Debug, Clone)]
pub enum GrbSelectOp {
    /// `GrB_TRIL(k)`.
    Tril(i64),
    /// `GrB_TRIU(k)`.
    Triu(i64),
    /// `GrB_DIAG(k)`.
    Diag(i64),
    /// `GrB_OFFDIAG(k)`.
    OffDiag(i64),
    /// `GrB_VALUEGT(thunk)`.
    ValueGt(Value),
    /// `GrB_VALUEGE(thunk)`.
    ValueGe(Value),
    /// `GrB_VALUELT(thunk)`.
    ValueLt(Value),
    /// `GrB_VALUELE(thunk)`.
    ValueLe(Value),
    /// `GrB_VALUEEQ(thunk)`.
    ValueEq(Value),
    /// `GrB_VALUENE(thunk)`.
    ValueNe(Value),
}

impl GrbSelectOp {
    fn thunk(&self) -> Option<&Value> {
        match self {
            GrbSelectOp::Tril(_)
            | GrbSelectOp::Triu(_)
            | GrbSelectOp::Diag(_)
            | GrbSelectOp::OffDiag(_) => None,
            GrbSelectOp::ValueGt(t)
            | GrbSelectOp::ValueGe(t)
            | GrbSelectOp::ValueLt(t)
            | GrbSelectOp::ValueLe(t)
            | GrbSelectOp::ValueEq(t)
            | GrbSelectOp::ValueNe(t) => Some(t),
        }
    }

    /// Value selectors order built-in domains only; structural selectors
    /// never read the value.
    pub(crate) fn check_input_domain(&self, d: GrbType) -> Result<()> {
        let Some(thunk) = self.thunk() else {
            return Ok(());
        };
        if d.is_udf() || thunk.type_of().is_udf() {
            return Err(Error::DomainMismatch(format!(
                "value selector compares {} against {}; user-defined \
                 domains have no such order",
                d.c_name(),
                thunk.type_of().c_name()
            )));
        }
        Ok(())
    }

    /// The selector over lane `T`, its thunk cast into `T` once.
    pub(crate) fn lane<T: Elem>(&self) -> impl IndexSelectOp<T> {
        let (op, t) = (self.clone(), self.thunk().map(T::cast_from));
        select_fn(move |i, j, v: &T| op.keep(i, j, v, t.as_ref()))
    }

    fn keep<T: PartialOrd>(&self, i: usize, j: usize, v: &T, t: Option<&T>) -> bool {
        let (i, j) = (i as i64, j as i64);
        let t = || t.expect("value selectors carry a thunk");
        match self {
            GrbSelectOp::Tril(k) => j - i <= *k,
            GrbSelectOp::Triu(k) => j - i >= *k,
            GrbSelectOp::Diag(k) => j - i == *k,
            GrbSelectOp::OffDiag(k) => j - i != *k,
            GrbSelectOp::ValueGt(_) => v > t(),
            GrbSelectOp::ValueGe(_) => v >= t(),
            GrbSelectOp::ValueLt(_) => v < t(),
            GrbSelectOp::ValueLe(_) => v <= t(),
            GrbSelectOp::ValueEq(_) => v == t(),
            GrbSelectOp::ValueNe(_) => v != t(),
        }
    }
}

/// `GrB_Monoid`: a binary operator over one domain plus its identity
/// element (`GrB_Monoid_new`, Fig. 3 lines 10/49/51).
#[derive(Debug, Clone)]
pub struct GrbMonoid {
    pub op: GrbBinaryOp,
    pub identity: Value,
    /// Declared absorbing element, if any (`GxB_Monoid_terminal_new`):
    /// once a reduction's accumulator equals it, further folding cannot
    /// change the result and kernels may stop early.
    pub terminal: Option<Value>,
}

impl GrbMonoid {
    /// `GrB_Monoid_new(&monoid, domain, op, identity)` — rejects
    /// operators whose domains are not uniform or whose identity has the
    /// wrong domain (`GrB_DOMAIN_MISMATCH`).
    pub fn new(op: GrbBinaryOp, identity: Value) -> Result<Self> {
        if !op.is_uniform() {
            return Err(Error::DomainMismatch(format!(
                "monoid operator must have one domain, got {op:?}"
            )));
        }
        if identity.type_of() != op.d1 {
            return Err(Error::DomainMismatch(format!(
                "identity domain {} does not match monoid domain {}",
                identity.type_of().c_name(),
                op.d1.c_name()
            )));
        }
        Ok(GrbMonoid {
            op,
            identity,
            terminal: None,
        })
    }

    /// Declare an absorbing (terminal) element in the monoid's domain.
    pub fn with_terminal(mut self, terminal: Value) -> Result<Self> {
        if terminal.type_of() != self.domain() {
            return Err(Error::DomainMismatch(format!(
                "terminal domain {} does not match monoid domain {}",
                terminal.type_of().c_name(),
                self.domain().c_name()
            )));
        }
        self.terminal = Some(terminal);
        Ok(self)
    }

    pub fn domain(&self) -> GrbType {
        self.op.d1
    }

    /// This monoid as a typed core monoid over lane `T`.
    pub(crate) fn lane<T: Elem>(&self) -> LaneMonoid<T> {
        LaneMonoid {
            op: LaneOp::new(&self.op),
            id: T::cast_from(&self.identity),
            term: self.terminal.as_ref().map(T::cast_from),
        }
    }
}

/// `GrB_Semiring`: `<add monoid, mul op>` (`GrB_Semiring_new`, Fig. 3
/// lines 12/53).
#[derive(Debug, Clone)]
pub struct GrbSemiring {
    pub add: GrbMonoid,
    pub mul: GrbBinaryOp,
}

impl GrbSemiring {
    /// `GrB_Semiring_new(&semiring, add_monoid, mul_op)` — the
    /// multiplicative output domain must be the additive domain.
    pub fn new(add: GrbMonoid, mul: GrbBinaryOp) -> Result<Self> {
        if mul.d3 != add.domain() {
            return Err(Error::DomainMismatch(format!(
                "⊗ output {} does not match ⊕ domain {}",
                mul.d3.c_name(),
                add.domain().c_name()
            )));
        }
        Ok(GrbSemiring { add, mul })
    }

    pub fn d1(&self) -> GrbType {
        self.mul.d1
    }

    pub fn d2(&self) -> GrbType {
        self.mul.d2
    }

    pub fn d3(&self) -> GrbType {
        self.mul.d3
    }

    /// This semiring as a typed core semiring over lane `T`.
    pub(crate) fn lane<T: Elem>(&self) -> SemiringDef<LaneMonoid<T>, LaneOp<T>> {
        SemiringDef::new(self.add.lane(), LaneOp::new(&self.mul))
    }
}

// ----- the typed lanes -----

/// The element of one lane: a built-in domain's Rust scalar, or [`Value`]
/// on the user-type lane. Every lane casts from every other (`CastFrom`,
/// the C conversion), so an operand enters an operator's domain through
/// a value map over its entries.
pub(crate) trait Elem:
    AsBool
    + PartialOrd
    + CastFrom<bool>
    + CastFrom<i8>
    + CastFrom<i16>
    + CastFrom<i32>
    + CastFrom<i64>
    + CastFrom<u8>
    + CastFrom<u16>
    + CastFrom<u32>
    + CastFrom<u64>
    + CastFrom<f32>
    + CastFrom<f64>
    + CastFrom<Value>
{
    // The domain's own arithmetic, for `PLUS`, `MINUS`, `TIMES`, `DIV`,
    // `AINV` and `MINV`: integers wrap, integer division is total
    // (`x/0 = 0`, `MIN/-1` wraps) and `1/0` is the domain's maximum.
    fn add(x: &Self, y: &Self) -> Self;
    fn sub(x: &Self, y: &Self) -> Self;
    fn mul(x: &Self, y: &Self) -> Self;
    fn div(x: &Self, y: &Self) -> Self;
    fn ainv(x: &Self) -> Self;
    fn minv(x: &Self) -> Self;

    fn to_value(&self) -> Value;

    /// A binary operator on this lane. A user closure sees its operands
    /// cast into its declared domains.
    #[inline(always)]
    fn binary(op: &GrbBinaryOp, x: &Self, y: &Self) -> Self {
        eval(op.code, x, y, || user_binary(op, x, y))
    }

    /// A unary operator on this lane.
    #[inline(always)]
    fn unary(op: &GrbUnaryOp, x: &Self) -> Self {
        eval(op.code, x, x, || user_unary(op, x))
    }
}

/// A user closure on a typed lane, out of line so the opcode path
/// inlines into the kernels.
#[inline(never)]
fn user_binary<T: Elem>(op: &GrbBinaryOp, x: &T, y: &T) -> T {
    let f = op.f.as_ref().expect("a user operator carries its closure");
    T::cast_from(&f(
        &x.to_value().cast_to(op.d1),
        &y.to_value().cast_to(op.d2),
    ))
}

#[inline(never)]
fn user_unary<T: Elem>(op: &GrbUnaryOp, x: &T) -> T {
    let f = op.f.as_ref().expect("a user operator carries its closure");
    T::cast_from(&f(&x.to_value().cast_to(op.d1)))
}

/// An opcode reached a domain it is not defined on: the constructors
/// rule this out.
#[cold]
#[inline(never)]
fn undefined(c: Code, domain: &str) -> ! {
    unreachable!("{c:?} on {domain} (capi bug)")
}

/// The one implementation of each predefined opcode, a single `match`
/// so a kernel pays one branch per application (`user` runs a user
/// closure). MIN/MAX return the first operand when the comparison is
/// unordered.
#[inline(always)]
fn eval<T: Elem>(c: Code, x: &T, y: &T, user: impl FnOnce() -> T) -> T {
    let b = |v: bool| T::cast_from(&v);
    match c {
        Code::Plus => T::add(x, y),
        Code::Minus => T::sub(x, y),
        Code::Times => T::mul(x, y),
        Code::Div => T::div(x, y),
        Code::Min => (if y < x { y } else { x }).clone(),
        Code::Max => (if y > x { y } else { x }).clone(),
        Code::First | Code::Identity => x.clone(),
        Code::Second => y.clone(),
        Code::Eq => b(x == y),
        Code::LAnd => b(x.as_bool() && y.as_bool()),
        Code::LOr => b(x.as_bool() || y.as_bool()),
        Code::LXor => b(x.as_bool() != y.as_bool()),
        Code::AInv => T::ainv(x),
        Code::MInv => T::minv(x),
        Code::LNot => b(!x.as_bool()),
        Code::User => user(),
    }
}

macro_rules! num_elem {
    ($minv:expr; $($t:ty),*) => {$(
        impl Elem for $t {
            #[inline(always)]
            fn add(x: &$t, y: &$t) -> $t {
                NumScalar::add(x, y)
            }

            #[inline(always)]
            fn sub(x: &$t, y: &$t) -> $t {
                NumScalar::sub(x, y)
            }

            #[inline(always)]
            fn mul(x: &$t, y: &$t) -> $t {
                NumScalar::mul(x, y)
            }

            #[inline(always)]
            fn div(x: &$t, y: &$t) -> $t {
                NumScalar::div(x, y)
            }

            #[inline(always)]
            fn ainv(x: &$t) -> $t {
                NumScalar::neg(x)
            }

            #[inline(always)]
            fn minv(x: &$t) -> $t {
                let f: fn(&$t) -> $t = $minv;
                f(x)
            }

            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        }
    )*};
}
num_elem!(|x| if *x == 0 { NumScalar::max_value() } else { NumScalar::div(&1, x) };
          i8, i16, i32, i64, u8, u16, u32, u64);
num_elem!(|x| 1.0 / x; f32, f64);

/// Arithmetic on a domain without it: the constructors rule this out.
macro_rules! no_arith {
    ($name:expr) => {
        fn add(_: &Self, _: &Self) -> Self {
            undefined(Code::Plus, $name)
        }

        fn sub(_: &Self, _: &Self) -> Self {
            undefined(Code::Minus, $name)
        }

        fn mul(_: &Self, _: &Self) -> Self {
            undefined(Code::Times, $name)
        }

        fn div(_: &Self, _: &Self) -> Self {
            undefined(Code::Div, $name)
        }

        fn ainv(_: &Self) -> Self {
            undefined(Code::AInv, $name)
        }

        fn minv(_: &Self) -> Self {
            undefined(Code::MInv, $name)
        }
    };
}

impl Elem for bool {
    no_arith!("bool");

    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

/// On the user-type lane an operand may hold any domain: it is cast into
/// the operator's, and an opcode dispatches on the tag to the typed
/// [`eval`] of that domain.
impl Elem for Value {
    no_arith!("a tagged value, which dispatches on the tag");

    fn to_value(&self) -> Value {
        self.clone()
    }

    fn binary(op: &GrbBinaryOp, x: &Value, y: &Value) -> Value {
        let (x, y) = (cast(x, op.d1), cast(y, op.d2));
        match &op.f {
            Some(f) => f(&x, &y),
            None => tagged(op.code, &x, &y, op.d3),
        }
    }

    fn unary(op: &GrbUnaryOp, x: &Value) -> Value {
        let x = cast(x, op.d1);
        match &op.f {
            Some(f) => f(&x),
            None => tagged(op.code, &x, &x, op.d2),
        }
    }
}

/// `v` in domain `ty`, borrowed when it already is.
fn cast(v: &Value, ty: GrbType) -> Cow<'_, Value> {
    if v.type_of() == ty {
        Cow::Borrowed(v)
    } else {
        Cow::Owned(v.cast_to(ty))
    }
}

/// Opcode `c` on two values of one domain, by that domain's [`eval`];
/// the result cast into `out`.
fn tagged(c: Code, x: &Value, y: &Value, out: GrbType) -> Value {
    let z = per_domain!(Value, x, a: S => Value::from(eval::<S>(c, a, &S::cast_from(y), || undefined(c, "a tagged value"))),
        Udf(_) => eval(c, x, y, || undefined(c, "a tagged value")));
    cast(&z, out).into_owned()
}

/// A binary operator on lane `T` (the same type serves as ⊗, eWise
/// operator and accumulator).
#[derive(Clone)]
pub(crate) struct LaneOp<T>(GrbBinaryOp, PhantomData<fn() -> T>);

impl<T> LaneOp<T> {
    pub(crate) fn new(op: &GrbBinaryOp) -> Self {
        LaneOp(op.clone(), PhantomData)
    }
}

impl<T: Elem> BinaryOp<T, T, T> for LaneOp<T> {
    #[inline(always)]
    fn apply(&self, x: &T, y: &T) -> T {
        T::binary(&self.0, x, y)
    }
}

/// A monoid on lane `T`.
#[derive(Clone)]
pub(crate) struct LaneMonoid<T> {
    op: LaneOp<T>,
    id: T,
    term: Option<T>,
}

impl<T: Elem> BinaryOp<T, T, T> for LaneMonoid<T> {
    #[inline(always)]
    fn apply(&self, x: &T, y: &T) -> T {
        self.op.apply(x, y)
    }
}

impl<T: Elem> Monoid<T> for LaneMonoid<T> {
    #[inline]
    fn identity(&self) -> T {
        self.id.clone()
    }

    #[inline]
    fn is_terminal(&self, v: &T) -> bool {
        self.term.as_ref() == Some(v)
    }
}

/// A unary operator on lane `T`.
#[derive(Clone)]
pub(crate) struct LaneUnary<T>(GrbUnaryOp, PhantomData<fn() -> T>);

impl<T> LaneUnary<T> {
    pub(crate) fn new(op: &GrbUnaryOp) -> Self {
        LaneUnary(op.clone(), PhantomData)
    }
}

impl<T: Elem> UnaryOp<T, T> for LaneUnary<T> {
    #[inline]
    fn apply(&self, x: &T) -> T {
        T::unary(&self.0, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_core::algebra::semiring::Semiring;

    fn apply2<T: Elem>(op: &GrbBinaryOp, x: T, y: T) -> T {
        LaneOp::<T>::new(op).apply(&x, &y)
    }

    #[test]
    fn predefined_operator_domains() {
        let p = GrbBinaryOp::plus(GrbType::Int32).unwrap();
        assert_eq!(
            (p.d1, p.d2, p.d3),
            (GrbType::Int32, GrbType::Int32, GrbType::Int32)
        );
        assert_eq!(apply2(&p, 2i32, 3), 5);
        assert_eq!(
            apply2(&p, Value::Int32(2), Value::Int32(3)),
            Value::Int32(5)
        );
        assert!(GrbBinaryOp::plus(GrbType::Bool).is_err()); // no GrB_PLUS_BOOL
    }

    #[test]
    fn arithmetic_per_domain() {
        let op = |f: fn(GrbType) -> Result<GrbBinaryOp>, ty| f(ty).unwrap();
        assert_eq!(
            apply2(&op(GrbBinaryOp::times, GrbType::Fp64), 2.5, 2.0),
            5.0
        );
        assert_eq!(
            apply2(&op(GrbBinaryOp::plus, GrbType::Uint8), 200u8, 100),
            44
        ); // wrap
        let div = op(GrbBinaryOp::div, GrbType::Int64);
        assert_eq!(apply2(&div, 7i64, 2), 3);
        assert_eq!(apply2(&div, 7i64, 0), 0); // total
        assert_eq!(apply2(&div, i64::MIN, -1), i64::MIN); // wraps
        assert_eq!(apply2(&op(GrbBinaryOp::min, GrbType::Int32), 2i32, -1), -1);
        assert_eq!(
            apply2(&op(GrbBinaryOp::max, GrbType::Fp32), 2.0f32, 3.0),
            3.0
        );
        // unordered: the first operand
        let min = op(GrbBinaryOp::min, GrbType::Fp64);
        assert!(apply2(&min, f64::NAN, 1.0).is_nan());
        assert_eq!(apply2(&min, 1.0, f64::NAN), 1.0);
    }

    #[test]
    fn tagged_values_cast_into_the_operator_domain() {
        // on the user-type lane an operand of another built-in domain is
        // cast into the operator's before the typed implementation runs
        let p = GrbBinaryOp::plus(GrbType::Int32).unwrap();
        assert_eq!(
            apply2(&p, Value::Fp64(2.9), Value::Int8(3)),
            Value::Int32(5)
        );
        let eq = GrbBinaryOp::eq(GrbType::Fp64);
        assert_eq!(
            apply2(&eq, Value::Fp64(f64::NAN), Value::Fp64(f64::NAN)),
            Value::Bool(false)
        );
    }

    #[test]
    fn monoid_construction_checks() {
        // Fig. 3 line 10: GrB_Monoid_new(&Int32Add, GrB_INT32, GrB_PLUS_INT32, 0)
        let m =
            GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0)).unwrap();
        assert_eq!(m.domain(), GrbType::Int32);
        assert_eq!(m.lane::<i32>().identity(), 0);
        // wrong identity domain
        let e = GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Fp32(0.0))
            .unwrap_err();
        assert!(matches!(e, Error::DomainMismatch(_)));
        // non-uniform operator
        let eqop = GrbBinaryOp::eq(GrbType::Int32);
        assert!(GrbMonoid::new(eqop, Value::Bool(true)).is_err());
    }

    #[test]
    fn semiring_construction_checks() {
        // Fig. 3 line 12: GrB_Semiring_new(&Int32AddMul, Int32Add, GrB_TIMES_INT32)
        let add =
            GrbMonoid::new(GrbBinaryOp::plus(GrbType::Int32).unwrap(), Value::Int32(0)).unwrap();
        let s = GrbSemiring::new(add.clone(), GrbBinaryOp::times(GrbType::Int32).unwrap()).unwrap();
        assert_eq!(s.d3(), GrbType::Int32);
        assert_eq!(Semiring::<i32, i32, i32>::zero(&s.lane::<i32>()), 0);
        // ⊗ output mismatch
        let e = GrbSemiring::new(add, GrbBinaryOp::times(GrbType::Fp32).unwrap()).unwrap_err();
        assert!(matches!(e, Error::DomainMismatch(_)));
    }

    #[test]
    fn unary_ops() {
        let un = |op: &GrbUnaryOp, x: Value| LaneUnary::<Value>::new(op).apply(&x);
        let minv = GrbUnaryOp::minv(GrbType::Fp32).unwrap();
        assert_eq!(un(&minv, Value::Fp32(4.0)), Value::Fp32(0.25));
        let imv = GrbUnaryOp::minv(GrbType::Int32).unwrap();
        assert_eq!(LaneUnary::<i32>::new(&imv).apply(&0), i32::MAX);
        assert_eq!(LaneUnary::<i32>::new(&imv).apply(&-1), -1);
        let id = GrbUnaryOp::identity(GrbType::Bool);
        // implicit cast of an int input to bool, as in Fig. 3 line 41
        assert_eq!(un(&id, Value::Int32(7)), Value::Bool(true));
        assert!(GrbUnaryOp::minv(GrbType::Bool).is_err());
        assert_eq!(
            un(&GrbUnaryOp::lnot(), Value::Bool(false)),
            Value::Bool(true)
        );
        let ainv = GrbUnaryOp::ainv(GrbType::Int64).unwrap();
        assert_eq!(LaneUnary::<i64>::new(&ainv).apply(&i64::MIN), i64::MIN);
        assert_eq!(un(&ainv, Value::Int32(5)), Value::Int64(-5));
    }

    #[test]
    fn logical_and_comparison_ops() {
        assert!(!apply2(&GrbBinaryOp::lxor(), true, true));
        assert_eq!(
            apply2(
                &GrbBinaryOp::eq(GrbType::Int32),
                Value::Int32(2),
                Value::Int32(2)
            ),
            Value::Bool(true)
        );
        assert_eq!(apply2(&GrbBinaryOp::first(GrbType::Fp64), 1.0, 2.0), 1.0);
    }

    #[test]
    fn domain_check_helper() {
        let p = GrbBinaryOp::plus(GrbType::Int32).unwrap();
        assert!(p
            .check_domains(GrbType::Int32, GrbType::Int32, GrbType::Int32)
            .is_ok());
        assert!(matches!(
            p.check_domains(GrbType::Int32, GrbType::Fp32, GrbType::Int32),
            Err(Error::DomainMismatch(_))
        ));
    }
}
