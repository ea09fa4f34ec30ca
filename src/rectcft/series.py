"""Exact arithmetic core: rationals, polynomials in the central charge, and
truncated power series.

Everything in this module is exact.  Rationals are `fractions.Fraction`,
polynomials in the formal symbol c are dense tuples of rationals (`CPoly`),
and series are dense coefficient lists over either ring, tagged by their
expansion variable ('q' or 'qhat', the half-period nome).  Fractional
symbolic prefactors such as q^{-c/48} are never folded into a series; they
are carried separately as an exponent (see `EtaPower`).  Sparse graded
vectors over either ring (`GradedVector`) and their truncated exponentials
(`exp_truncated`) are shared by the Verma module and the free fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

DEFAULT_ORDER = 60


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
    """Polynomial in the central-charge symbol c, with Fraction coefficients.

    Immutable; trailing zeros are trimmed so equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        cs = tuple(_as_fraction(x) for x in coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    def __setattr__(self, *a):
        raise AttributeError("CPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree in c; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant(self) -> Fraction:
        """The c^0 coefficient; requires is_constant()."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in c")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = cpoly(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = cpoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return CPoly(tuple(a[i] + b[i] if i < len(b) else a[i] for i in range(len(a))))

    __radd__ = __add__

    def __neg__(self):
        return CPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-cpoly(other))

    def __rsub__(self, other):
        return cpoly(other) + (-self)

    def __mul__(self, other):
        other = cpoly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return CZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return CPoly(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_fraction(other) if not isinstance(other, CPoly) else other
        if isinstance(other, CPoly):
            if not other.is_constant():
                raise TypeError("CPoly division only by scalars; use div_c for /c")
            other = other.constant()
        return CPoly(tuple(x / other for x in self.coeffs))

    def div_c(self) -> "CPoly":
        """Exact division by c; raises DivisibilityError if the c^0 term is nonzero."""
        if self.coeffs and self.coeffs[0] != 0:
            raise DivisibilityError(f"{self} has nonzero constant term {self.coeffs[0]}")
        return CPoly(self.coeffs[1:])

    def __call__(self, c_value) -> Fraction:
        """Evaluate at a rational value of c (Horner)."""
        c_value = _as_fraction(c_value)
        acc = Fraction(0)
        for x in reversed(self.coeffs):
            acc = acc * c_value + x
        return acc

    def __repr__(self):
        if not self.coeffs:
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

    @staticmethod
    def from_json(data) -> "CPoly":
        return CPoly(tuple(Fraction(s) for s in data))


def cpoly(x) -> CPoly:
    if isinstance(x, CPoly):
        return x
    return CPoly((x,))


CZERO = CPoly(())
CONE = CPoly((1,))
C = CPoly((0, 1))  # the symbol c itself


def _coeff_zero(sample):
    return CZERO if isinstance(sample, CPoly) else Fraction(0)


class Series:
    """Truncated power series c_off*x^off + ... + c_ord*x^ord over Fraction or CPoly.

    `var` tags the expansion variable ('q' or 'qhat'); arithmetic between
    different tags raises.  `order` is the largest retained exponent and
    arithmetic truncates to the min of the operand orders — never silently
    extends.  `offset` is the leading exponent (may be negative).
    """

    __slots__ = ("var", "offset", "coeffs")

    def __init__(self, var: str, coeffs, order: int | None = None, offset: int = 0):
        coeffs = tuple(c if isinstance(c, CPoly) else _as_fraction(c) for c in coeffs)
        if order is not None:
            want = order - offset + 1
            if len(coeffs) < want:
                coeffs = coeffs + tuple(Fraction(0) for _ in range(want - len(coeffs)))
            else:
                coeffs = coeffs[:want]
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return self.offset + len(self.coeffs) - 1

    def __getitem__(self, n: int):
        """Coefficient of x^n (zero off the stored window)."""
        i = n - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.var != other.var:
            return False
        lo = min(self.offset, other.offset)
        hi = max(self.order, other.order)
        return all(cpoly(self[n]) == cpoly(other[n]) for n in range(lo, hi + 1))

    def _check(self, other: "Series"):
        if self.var != other.var:
            raise VariableMismatchError(f"{self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series(self.var, (other,), order=self.order)
        self._check(other)
        order = min(self.order, other.order)
        off = min(self.offset, other.offset)
        return Series(self.var, tuple(self[n] + other[n] for n in range(off, order + 1)),
                      order=order, offset=off)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.var, tuple(-c for c in self.coeffs), offset=self.offset)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series(self.var, (other,), order=self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series(self.var, tuple(c * other for c in self.coeffs), offset=self.offset)
        self._check(other)
        # a is known through a.order, so the error term O(x^{a.order+1}) times
        # b's leading power limits the product to a.order + b.offset (and v.v.)
        order = min(self.order + other.offset, other.order + self.offset)
        off = self.offset + other.offset
        n_out = order - off + 1
        if n_out <= 0:
            return Series(self.var, (), offset=off)
        out = [None] * n_out
        for i, x in enumerate(self.coeffs):
            if not x:
                continue
            for j, y in enumerate(other.coeffs):
                k = i + j
                if k >= n_out:
                    break
                if not y:
                    continue
                v = x * y
                out[k] = v if out[k] is None else out[k] + v
        zero = Fraction(0)
        return Series(self.var, tuple(zero if c is None else c for c in out),
                      order=order, offset=off)

    __rmul__ = __mul__

    def truncate(self, order: int) -> "Series":
        return Series(self.var, self.coeffs, order=order, offset=self.offset)

    def substitute_square(self, var: str) -> "Series":
        """Replace x by y^2 (used for q = qhat^2)."""
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1 if self.coeffs else 0)
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return Series(var, tuple(out), offset=2 * self.offset)

    def map_coeffs(self, f) -> "Series":
        return Series(self.var, tuple(f(c) for c in self.coeffs), offset=self.offset)

    def __repr__(self):
        terms = []
        for n in range(self.offset, self.order + 1):
            c = self[n]
            if c.is_zero() if isinstance(c, CPoly) else c == 0:
                continue
            cs = f"({c})" if isinstance(c, CPoly) and not c.is_constant() else str(c)
            if n == 0:
                terms.append(cs)
            elif n == 1:
                terms.append(f"{cs}*{self.var}" if cs != "1" else self.var)
            else:
                terms.append(f"{cs}*{self.var}^{n}" if cs != "1" else f"{self.var}^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O({self.var}^{self.order + 1})"

    def to_json(self):
        def enc(c):
            return c.to_json() if isinstance(c, CPoly) else str(c)
        return {"variable": self.var, "offset": self.offset, "order": self.order,
                "coefficients": [enc(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data) -> "Series":
        def dec(c):
            return CPoly.from_json(c) if isinstance(c, list) else Fraction(c)
        return Series(data["variable"], tuple(dec(c) for c in data["coefficients"]),
                      offset=data["offset"])


def series_one(var: str, order: int) -> Series:
    return Series(var, (Fraction(1),), order=order)


def series_x(var: str, order: int) -> Series:
    return Series(var, (Fraction(0), Fraction(1)), order=order)


def _is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, CPoly) else c == 0


def series_exp(a: Series) -> Series:
    """exp of a series with zero constant term (offset must be >= 0)."""
    if a.offset < 0 or not _is_zero(a[0]):
        raise SeriesError("series_exp needs zero constant term")
    order = a.order
    # e' = a' e  =>  (n+1) e_{n+1} = sum_k (k+1) a_{k+1} e_{n-k}
    e = [None] * (order + 1)
    e[0] = Fraction(1)
    for n in range(order):
        acc = None
        for k in range(n + 1):
            ak = a[k + 1]
            if _is_zero(ak):
                continue
            v = (k + 1) * (ak * e[n - k])
            acc = v if acc is None else acc + v
        e[n + 1] = Fraction(0) if acc is None else acc * Fraction(1, n + 1)
    return Series(a.var, tuple(e), order=order)


def series_log(a: Series) -> Series:
    """log of a series with constant term 1."""
    if a.offset > 0 or cpoly(a[0]) != CONE:
        raise SeriesError("series_log needs constant term 1")
    order = a.order
    # l_n = a_n - (1/n) sum_{k=1}^{n-1} k l_k a_{n-k}
    l = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = a[n]
        for k in range(1, n):
            lk, ank = l[k], a[n - k]
            if _is_zero(lk) or _is_zero(ank):
                continue
            acc = acc - Fraction(k, n) * (lk * ank)
        l[n] = acc
    return Series(a.var, tuple(l), order=order)


def series_pow_scalar(a: Series, r) -> Series:
    """a^r = exp(r log a) for scalar r (Fraction or CPoly); needs constant term 1."""
    r = r if isinstance(r, CPoly) else cpoly(r)
    if r.is_zero():
        return series_one(a.var, a.order)
    la = series_log(a)
    return series_exp(la.map_coeffs(lambda c: r * c))


def series_pow_c_ratio(a: Series, numerator=2) -> Series:
    """a^(numerator/c): log, exact division of every coefficient by c, exp.

    Every log coefficient must be divisible by c (DivisibilityError if not);
    this holds for the amplitudes treated here, so a failure is a
    correctness alarm rather than a numeric issue.
    """
    la = series_log(a)
    divided = la.map_coeffs(lambda c: cpoly(c).div_c() * numerator)
    return series_exp(divided)


def partition_numbers(kmax: int) -> list[int]:
    """p_0 .. p_kmax by the Euler pentagonal-number recurrence."""
    p = [0] * (kmax + 1)
    p[0] = 1
    for n in range(1, kmax + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


@dataclass(frozen=True)
class EtaPower:
    """Pi_{n>=1}(1-x^n)^{-s} together with the symbolic prefactor exponent.

    eta(tau)^{-s} = q^{-s/24} * series; the -s/24 never enters the series,
    it is reported in `prefactor_exponent` (a CPoly, exponent of q).
    """

    series: Series
    prefactor_exponent: CPoly


def eta_inverse_power(exponent, var: str = "q", order: int = DEFAULT_ORDER) -> EtaPower:
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
# graded vectors


@dataclass
class GradedVector:
    """Finite combination of basis states, truncated at level `cutoff`.

    `terms` maps a basis key (a tuple of mode labels) to its coefficient;
    zero coefficients are dropped on construction.  A realization subclasses
    this with its coefficient ring (`ring` coerces a coefficient) and the
    level of a key (`level`), and supplies its mode action separately.
    """

    terms: dict
    cutoff: int

    ring = Fraction
    level = staticmethod(sum)

    def __post_init__(self):
        ring = self.ring
        self.terms = {key: c for key, co in self.terms.items() if (c := ring(co))}

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def coeff(self, key):
        return self.terms.get(tuple(key), self.ring(0))

    def is_zero(self) -> bool:
        return not self.terms

    def level_component(self, n):
        level = self.level
        return type(self)({key: co for key, co in self.terms.items() if level(key) == n},
                          self.cutoff)

    def add_scaled(self, other, s):
        """self + s * other."""
        out = dict(self.terms)
        for key, co in other.terms.items():
            v = co * s
            acc = out.get(key)
            out[key] = v if acc is None else acc + v
        return type(self)(out, max(self.cutoff, other.cutoff))


def exp_truncated(op, v, x, n_max: int):
    """sum_{j=0}^{n_max} x^j/j! op^j v, ending early at the first op^j v = 0."""
    out = term = v
    for j in range(1, n_max + 1):
        term = op(term)
        if term.is_zero():
            break
        out = out.add_scaled(term, Fraction(x) ** j / math.factorial(j))
    return out
