"""Exact arithmetic core: rationals, polynomials in the central charge, and
truncated power series.

Everything in this module is exact.  Rationals are `fractions.Fraction`,
polynomials in the formal symbol c are dense tuples of integer numerators
over one common denominator (`CPoly`), and series are dense coefficient
lists over either ring, tagged by their expansion variable ('q' or 'qhat',
the half-period nome).  Fractional symbolic prefactors such as q^{-c/48} are
never folded into a series; they are carried separately as an exponent (see
`EtaPower`).  The truncated exponential (`exp_truncated`) that the Verma
module and the free fields share lives here too; each brings its own
vector type (integer numerators over one denominator), which only has to
offer `is_zero` and `add_scaled`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class SeriesError(ValueError):
    pass


class VariableMismatchError(SeriesError):
    """Arithmetic between series in different variables."""


class DivisibilityError(ArithmeticError):
    """A coefficient that must be divisible by c is not.

    This is a structural failure: the quantities treated here satisfy the
    divisibility exactly, so tripping it signals a bug or a wrong input,
    not a tolerance issue.
    """


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class CPoly:
    """Polynomial in the central-charge symbol c with rational coefficients,
    stored as integer numerators `nums` over one positive denominator `den`.

    Immutable and canonical: gcd(nums, den) = 1, no trailing zero numerator,
    and zero is ((), 1), so structural equality is value equality.  A
    product convolves the numerators and reduces once; a sum brings both
    sides to the lcm of their denominators and reduces once.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(x) for x in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        den = math.lcm(*(x.denominator for x in cs))  # canonical without a gcd
        _set(self, "nums", tuple(x.numerator * (den // x.denominator) for x in cs))
        _set(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients of c^0, c^1, ... as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def constant(self) -> Fraction:
        """The c^0 coefficient; requires is_constant()."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in c")
        return self[0]

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, (CPoly, int, Fraction)):
            return NotImplemented
        other = cpoly(other)
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        # a constant hashes as the Fraction it equals
        return hash(self[0]) if self.is_constant() else hash((self.nums, self.den))

    def __add__(self, other):
        other = cpoly(other)
        a, b, den, db = self.nums, other.nums, self.den, other.den
        if den != db:
            l = math.lcm(den, db)
            a, b, den = [x * (l // den) for x in a], [y * (l // db) for y in b], l
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        while out and not out[-1]:
            out.pop()
        return _new(out, den, math.gcd(den, *out)) if out else CZERO

    __radd__ = __add__

    def __neg__(self):
        return _new([-n for n in self.nums], self.den, 1)

    def __sub__(self, other):
        return self + (-cpoly(other))

    def __mul__(self, other):
        other = cpoly(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return CZERO
        if len(b) > len(a):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    out[i] += x * y
        den = self.den * other.den
        return _new(out, den, math.gcd(den, *out))

    __rmul__ = __mul__

    def div_c(self) -> "CPoly":
        """Exact division by c; raises DivisibilityError if the c^0 term is nonzero."""
        if self.nums and self.nums[0]:
            raise DivisibilityError(f"{self} has nonzero constant term {self[0]}")
        return _new(self.nums[1:], self.den, 1)

    def __call__(self, c_value) -> Fraction:
        """Evaluate at a rational value of c (Horner)."""
        c_value = _as_fraction(c_value)
        acc = Fraction(0)
        for n in reversed(self.nums):
            acc = acc * c_value + n
        return acc / self.den

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for k, x in enumerate(self.coeffs):
            if x == 0:
                continue
            if k == 0:
                parts.append(str(x))
            elif k == 1:
                parts.append(f"{x}*c" if x != 1 else "c")
            else:
                parts.append(f"{x}*c^{k}" if x != 1 else f"c^{k}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        return [str(x) for x in self.coeffs]


_set = object.__setattr__


def _new(nums, den: int, g: int) -> CPoly:
    """(nums/g)/(den/g), for g dividing both and nums without trailing zero."""
    p = object.__new__(CPoly)
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    _set(p, "nums", tuple(nums))
    _set(p, "den", den)
    return p


def cpoly(x) -> CPoly:
    if isinstance(x, CPoly):
        return x
    x = _as_fraction(x)
    return _new((x.numerator,) if x else (), x.denominator, 1)


CZERO = CPoly(())
CONE = CPoly((1,))
C = CPoly((0, 1))  # the symbol c itself


class Series:
    """Truncated power series c_0 + c_1*x + ... + c_ord*x^ord over Fraction or CPoly.

    `var` tags the expansion variable ('q' or 'qhat'); a product of
    different tags raises.  `order` is the largest retained exponent and a
    product truncates to the min of the operand orders — never silently
    extends.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs, order: int | None = None):
        coeffs = tuple(c if isinstance(c, CPoly) else _as_fraction(c) for c in coeffs)
        if order is not None:
            want = order + 1
            if len(coeffs) < want:
                coeffs = coeffs + tuple(Fraction(0) for _ in range(want - len(coeffs)))
            else:
                coeffs = coeffs[:want]
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        """Coefficient of x^n (zero off the stored window)."""
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.var != other.var:
            return False
        return all(self[n] == other[n] for n in range(max(self.order, other.order) + 1))

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.var != other.var:
            raise VariableMismatchError(f"{self.var!r} vs {other.var!r}")
        n_out = min(self.order, other.order) + 1
        out = [None] * n_out
        for i, x in enumerate(self.coeffs[:n_out]):
            if not x:
                continue
            for j, y in enumerate(other.coeffs[:n_out - i]):
                if y:
                    v = x * y
                    out[i + j] = v if out[i + j] is None else out[i + j] + v
        zero = Fraction(0)
        return Series(self.var, tuple(zero if c is None else c for c in out))

    def truncate(self, order: int) -> "Series":
        return Series(self.var, self.coeffs, order=order)

    def substitute_square(self, var: str) -> "Series":
        """Replace x by y^2 (used for q = qhat^2)."""
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1 if self.coeffs else 0)
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return Series(var, tuple(out))

    def map_coeffs(self, f) -> "Series":
        return Series(self.var, tuple(f(c) for c in self.coeffs))

    def __repr__(self):
        """Plain maths style, `1 + 1/4 qhat^2 + ...`; the `--format plain` output."""
        parts = []
        for n, co in enumerate(self.coeffs):
            if not co:
                continue
            cs = f"({co})" if isinstance(co, CPoly) and not co.is_constant() else str(co)
            if n == 0:
                parts.append(cs)
            else:
                var = self.var if n == 1 else f"{self.var}^{n}"
                parts.append(var if cs == "1" else f"{cs} {var}")
        return (" + ".join(parts) if parts else "0") + " + ..."

    def to_json(self):
        def enc(c):
            return c.to_json() if isinstance(c, CPoly) else str(c)
        return {"variable": self.var, "offset": 0, "order": self.order,
                "coefficients": [enc(c) for c in self.coeffs]}


def series_exp(a: Series) -> Series:
    """exp of a series with zero constant term."""
    if a[0]:
        raise SeriesError("series_exp needs zero constant term")
    order = a.order
    # e' = a' e  =>  (n+1) e_{n+1} = sum_k (k+1) a_{k+1} e_{n-k}
    e = [None] * (order + 1)
    e[0] = Fraction(1)
    for n in range(order):
        acc = None
        for k in range(n + 1):
            ak = a[k + 1]
            if not ak:
                continue
            v = (k + 1) * (ak * e[n - k])
            acc = v if acc is None else acc + v
        e[n + 1] = Fraction(0) if acc is None else acc * Fraction(1, n + 1)
    return Series(a.var, tuple(e), order=order)


def series_log(a: Series) -> Series:
    """log of a series with constant term 1."""
    if cpoly(a[0]) != CONE:
        raise SeriesError("series_log needs constant term 1")
    order = a.order
    # l_n = a_n - (1/n) sum_{k=1}^{n-1} k l_k a_{n-k}
    l = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = a[n]
        for k in range(1, n):
            lk, ank = l[k], a[n - k]
            if not lk or not ank:
                continue
            acc = acc - Fraction(k, n) * (lk * ank)
        l[n] = acc
    return Series(a.var, tuple(l), order=order)


def series_pow_c_ratio(a: Series) -> Series:
    """a^(2/c): log, exact division of every coefficient by c, times 2, exp.

    Every log coefficient must be divisible by c (DivisibilityError if not);
    this holds for the amplitudes treated here, so a failure is a
    correctness alarm rather than a numeric issue.
    """
    la = series_log(a)
    divided = la.map_coeffs(lambda c: cpoly(c).div_c() * 2)
    return series_exp(divided)


@dataclass(frozen=True)
class EtaPower:
    """Pi_{n>=1}(1-x^n)^{-s} together with the symbolic prefactor exponent.

    eta(tau)^{-s} = q^{-s/24} * series; the -s/24 never enters the series,
    it is reported in `prefactor_exponent` (a CPoly, exponent of q).
    """

    series: Series
    prefactor_exponent: CPoly


def eta_inverse_power(exponent, var: str, order: int) -> EtaPower:
    """Expansion of Pi (1-q^n)^{-s}; in qhat the substitution q = qhat^2 applies."""
    if order < 0:
        raise SeriesError("order must be >= 0")
    s_poly = exponent if isinstance(exponent, CPoly) else cpoly(exponent)
    s = s_poly.constant() if s_poly.is_constant() else s_poly  # rational s -> rational coeffs
    # log Pi (1-q^n)^{-s} = s * sum_{n,m} q^{nm}/m
    qord = order if var == "q" else order // 2
    l = [Fraction(0)] * (qord + 1)
    for n in range(1, qord + 1):
        for m in range(1, qord // n + 1):
            l[n * m] += Fraction(1, m)
    body = series_exp(Series("q", tuple(s * x for x in l), order=qord))
    if var == "qhat":
        body = body.substitute_square("qhat").truncate(order)
    return EtaPower(series=body, prefactor_exponent=-(s_poly * Fraction(1, 24)))


# ---------------------------------------------------------------------------
# exponential of an operator on a graded vector


def exp_truncated(op, v, x, n_max: int):
    """sum_{j=0}^{n_max} x^j/j! op^j v, ending early at the first op^j v = 0."""
    out = term = v
    for j in range(1, n_max + 1):
        term = op(term)
        if term.is_zero():
            break
        out = out.add_scaled(term, Fraction(x) ** j / math.factorial(j))
    return out
