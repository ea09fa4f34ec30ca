"""Verma module of the vacuum over Q[c]: Virasoro action, the rectangle
boundary state and its finitized versions, amplitudes, gluing residuals,
and the P_N generating functions.

Basis states are descendants L_{-l1} L_{-l2} ... |0> indexed by integer
partitions (descending tuples, parts >= 2 because L_{-1}|0> = 0).  Every
structure constant is an integer multiple of 1 or of h = c/2, so the cached
mode action `act`, the vacuum functional and the vectors themselves run on
integer polynomials in h over one denominator; identities are checked in
Q[c], not at sampled charge values, and CPoly coefficients in c are built
only for output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .series import (C, CPoly, Series, cpoly, eta_inverse_power, exp_truncated,
                     series_pow_c_ratio)

Partition = tuple  # descending tuple of ints >= 2; () is the vacuum


@functools.lru_cache(maxsize=None)
def act(n: int, lam: Partition) -> dict:
    """L_n applied to the basis state |lam>, as a {partition: coefficients}
    map; the coefficients are the integers of h^0, h^1, ... with h = c/2,
    no trailing zero, and a lowering mode's image is a 1-tuple.

    Normal ordering by repeated commutation, [L_m, L_k] = (m-k) L_{m+k}
    + h (m-1) m (m+1)/6 delta_{m+k,0}; L_n|0> = 0 for n >= -1.
    Treat the returned dict as read-only (it is cached).
    """
    if not lam:
        return {} if n >= -1 else {(-n,): (1,)}
    m1, rest = lam[0], lam[1:]
    if n <= -m1:
        # L_n commutes straight to the front of the descending word
        return {(-n,) + lam: (1,)}
    out: dict = {}
    # L_n L_{-m1} = L_{-m1} L_n + (n+m1) L_{n-m1} + h n(n^2-1)/6 delta_{n,m1}
    for mu, co in act(n, rest).items():
        for nu, (s,) in act(-m1, mu).items():  # a lowering image is a 1-tuple
            _add_scaled(out, nu, co, s)
    if n + m1:
        for nu, co in act(n - m1, rest).items():
            _add_scaled(out, nu, co, n + m1)
    if n == m1:
        _add_scaled(out, rest, (0, n * (n * n - 1) // 6), 1)
    return {nu: co for nu, acc in out.items() if (co := _trimmed(acc))}


def _add_scaled(out: dict, key, co: tuple, s: int) -> None:
    """out[key] += s * co, on integer coefficient lists."""
    acc = out.get(key)
    if acc is None:
        out[key] = [n * s for n in co]
        return
    if len(acc) < len(co):
        acc.extend([0] * (len(co) - len(acc)))
    for e, n in enumerate(co):
        acc[e] += n * s


def _trimmed(acc: list) -> tuple:
    while acc and not acc[-1]:
        acc.pop()
    return tuple(acc)


class VermaVector:
    """Finite combination of vacuum descendants over Q[c], truncated at
    level `cutoff`.  `terms` maps a partition to its slots, {degree in
    h = c/2: integer numerator}, all over the one denominator `den`; after
    `qhat_tagged(width)` a slot also holds level * width (the power of
    qhat).  Slots may hold zeros until `reduced`."""

    __slots__ = ("terms", "cutoff", "den")

    def __init__(self, terms: dict, cutoff: int, den: int = 1):
        self.terms, self.cutoff, self.den = terms, cutoff, den

    def is_zero(self) -> bool:
        return not any(any(slots.values()) for slots in self.terms.values())

    def max_level(self) -> int:
        return max(map(sum, self.terms), default=0)

    def coeff(self, lam) -> CPoly:
        return _poly(self.terms.get(tuple(lam), {}), self.den)

    def polys(self) -> dict:
        """{partition: CPoly coefficient}, zeros left out."""
        return {lam: co for lam, slots in self.terms.items() if (co := _poly(slots, self.den))}

    def to_json(self):
        return {"cutoff": self.cutoff,
                "terms": [{"partition": list(lam), "coefficient": co.to_json()}
                          for lam, co in sorted(self.polys().items())]}

    def add_scaled(self, other: "VermaVector", s) -> "VermaVector":
        """self + s * other over the lcm of the denominators, for s rational
        or a CPoly (c^e = 2^e h^e)."""
        s = cpoly(s)
        den = math.lcm(self.den, s.den * other.den)
        f, g = den // self.den, den // (s.den * other.den)
        terms = {lam: {t: n * f for t, n in slots.items()} for lam, slots in self.terms.items()}
        for e, m in enumerate(s.nums):
            if not m:
                continue
            m = (m << e) * g
            for lam, slots in other.terms.items():
                acc = terms.setdefault(lam, {})
                for t, n in slots.items():
                    t += e
                    acc[t] = acc.get(t, 0) + n * m
        return VermaVector(terms, max(self.cutoff, other.cutoff), den)

    def reduced(self) -> "VermaVector":
        """Zeros dropped, the gcd of all numerators and the denominator
        taken out."""
        g = math.gcd(self.den, *(math.gcd(*slots.values()) for slots in self.terms.values()))
        out = {}
        for lam, slots in self.terms.items():
            slots = {t: n // g for t, n in slots.items() if n}
            if slots:
                out[lam] = slots
        return VermaVector(out, self.cutoff, self.den // g)

    def qhat_tagged(self, width: int) -> "VermaVector":
        """Each term tagged with qhat to its level: qhat^{L_0} L_{-n}
        qhat^{-L_0} = qhat^n L_{-n}, so modes acting afterwards act on
        every level at once; `width` bounds the degree in h."""
        return VermaVector({lam: {sum(lam) * width + e: n for e, n in slots.items()}
                            for lam, slots in self.terms.items()}, self.cutoff, self.den)


def _poly(slots: dict, den: int) -> CPoly:
    """sum_e slots[e] h^e / den as a CPoly in c = 2h."""
    return CPoly(tuple(Fraction(slots.get(e, 0), den << e)
                       for e in range(max(slots, default=-1) + 1)))


def vacuum(cutoff: int = 0) -> VermaVector:
    return VermaVector({(): {0: 1}}, cutoff)


def apply_mode(n: int, v: VermaVector) -> VermaVector:
    """L_n on every term of v, over v.den; levels above v.cutoff are
    dropped.  A coefficient's h^e moves a slot up by e, so qhat tags ride
    along."""
    out: dict = {}
    for lam, slots in v.terms.items():
        if sum(lam) - n > v.cutoff:  # every term of act(n, lam) is at |lam| - n
            continue
        for mu, co in act(n, lam).items():
            target = out.get(mu)
            for e, m in enumerate(co):
                if not m:
                    continue
                if target is None:
                    target = out[mu] = {t + e: k * m for t, k in slots.items()}
                    continue
                get = target.get
                for t, k in slots.items():
                    t += e
                    target[t] = get(t, 0) + k * m
    return VermaVector({mu: slots for mu, slots in out.items() if any(slots.values())},
                       v.cutoff, v.den)


def _slit_factors(n_factors: int):
    """(k, x) for the product e^{x_N L_{-2^N}} ... e^{-L_{-2}}, x_j = -2/2^j."""
    return [(2 ** j, Fraction(-1, 2 ** (j - 1))) for j in range(1, n_factors + 1)]


def slit_factor_count(cutoff: int) -> int:
    """The largest N >= 1 with 2^N <= cutoff.

    Factors with 2^N > cutoff act trivially below the cutoff (their lowest
    action sits at level 2^N), so this many factors give the full state."""
    return max(1, cutoff.bit_length() - 1)


def slit_product(apply_l, v, cutoff: int, n_factors: int):
    """The slit product e^{x_N L_{-2^N}} ... e^{-L_{-2}} applied to v, in any
    realization whose Virasoro action is `apply_l(n, vec)`.  The factor with
    L_{-k} stops after floor(cutoff/k) applications, the last that can stay
    within the cutoff."""
    for k, x in _slit_factors(n_factors):
        v = exp_truncated(functools.partial(apply_l, -k), v, x, cutoff // k)
    return v


def finitized_state(n_slit_exponent: int, cutoff: int) -> VermaVector:
    """The 2^N - 1 slit state: exactly N exponential factors applied to |0>."""
    if n_slit_exponent < 1:
        raise ValueError("need N >= 1")
    return slit_product(apply_mode, vacuum(cutoff), cutoff, n_slit_exponent)


def boundary_state(cutoff: int) -> VermaVector:
    """The rectangle boundary state truncated at `cutoff`."""
    return finitized_state(slit_factor_count(cutoff), cutoff)


def gluing_residual(v: VermaVector, n: int) -> VermaVector:
    """(L_n - L_{-n} + (n c / 8)[1 + (-1)^n]) v, n >= 1: the gluing condition
    with the identity at both corners (corner weights -c/16 each).

    For v = boundary_state(cutoff) the components at level <= cutoff - n
    vanish identically in c; levels above that are not meaningful because
    L_n reaches past the truncation.
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    res = apply_mode(n, v).add_scaled(apply_mode(-n, v), Fraction(-1))
    return res.add_scaled(v, C * Fraction(n, 4)) if n % 2 == 0 else res


@functools.lru_cache(maxsize=None)
def vacuum_functional(mu: Partition) -> tuple:
    """phi(mu) = <0|L_2^j|mu>, j = |mu|/2, as the integers of h^0, h^1, ...
    (no trailing zero; () where it vanishes), from phi(()) = 1 and
    phi(mu) = sum_nu act(2, mu)[nu] phi(nu).  Cached like `act`."""
    if not mu:
        return (1,)
    acc = [0] * (sum(mu) // 2 + 1)  # one h per L_2: degree <= j
    for nu, co in act(2, mu).items():
        for e, m in enumerate(co):
            if m:
                for i, n in enumerate(vacuum_functional(nu), e):
                    acc[i] += n * m
    return _trimmed(acc)


def exp_l2_vacuum(g: VermaVector, x, order: int, width: int) -> Series:
    """The vacuum coefficient of e^{x L_2} g, g tagged by
    `qhat_tagged(width)`, as a qhat-series over Q[c].

    Only the terms of g at even level 2j reach |0>, with weight
    x^j/j! phi(mu) (`vacuum_functional`).  Every product is summed as an
    integer per slot over one denominator; h^e becomes c^e/2^e at the end."""
    top = max((sum(mu) // 2 for mu in g.terms), default=0)
    weights = [Fraction(x) ** j / math.factorial(j) for j in range(top + 1)]
    scale = math.lcm(*(w.denominator for w in weights))
    acc = [0] * ((order + 1) * width)
    for mu, slots in g.terms.items():
        w = weights[sum(mu) // 2]
        f = w.numerator * (scale // w.denominator)
        for e, m in enumerate(vacuum_functional(mu)):
            if m:
                m *= f
                for t, n in slots.items():
                    acc[t + e] += n * m
    den = g.den * scale
    return Series("qhat", tuple(_poly(dict(enumerate(acc[i:i + width])), den)
                                for i in range(0, len(acc), width)), order=order)


def product_amplitude(n_slit_exponent: int | None, order: int) -> Series:
    """Amplitude <v|qhat^{L_0}|v> of the slit-product state v = E|0>, E the
    product of the factors e^{x_k L_{-k}} (`n_slit_exponent=None` means the
    full boundary state), as a qhat-series over Q[c].

    The amplitude is the vacuum coefficient of E^dagger qhat^{L_0} v.  Each
    term of v is tagged with qhat to its level (`qhat_tagged`), and each
    adjoint factor e^{x_k L_k} with k >= 4, largest k first, runs once
    through `exp_truncated` over the whole tagged vector, every level at
    once; each stage ends with one gcd reduction.  Of the last factor,
    e^{-L_2}, only the vacuum coefficient is read, so it is applied
    transposed (`exp_l2_vacuum`): <0| is pulled back through L_2 once per
    partition (`vacuum_functional`), and the tagged vector meets it in one
    integer contraction.
    Independent of the Shapovalov-form route, against which the tests
    check it.
    """
    n = slit_factor_count(order) if n_slit_exponent is None else n_slit_exponent
    v = slit_product(apply_mode, vacuum(order), order, n)
    # one h per application of an L_k, k >= 2: degree <= level / 2
    width = order // 2 + 1
    g = v.qhat_tagged(width)
    (_, x), *raising = _slit_factors(n)
    for k, y in reversed(raising):
        g = exp_truncated(functools.partial(apply_mode, k), g, y,
                          g.max_level() // k).reduced()
    return exp_l2_vacuum(g, x, order, width)


def p_series(n_slit_exponent: int, order: int) -> Series:
    """P_N(q) = (<H|q^{L_0/2}|H>)^{2/c} as a q-series with rational coefficients.

    The amplitude lives at even levels only (asserted), its log is exactly
    linear in c (asserted through the exact division), and the 2/c power
    lands on pure rationals (asserted).
    """
    amp_qhat = product_amplitude(n_slit_exponent, 2 * order)
    for lev in range(1, 2 * order + 1, 2):
        if not cpoly(amp_qhat[lev]).is_zero():
            raise AssertionError(f"odd level {lev} does not vanish")
    amp_q = Series("q", tuple(amp_qhat[2 * j] for j in range(order + 1)), order=order)
    p = series_pow_c_ratio(amp_q)
    out = []
    for j in range(order + 1):
        co = cpoly(p[j])
        if not co.is_constant():
            raise AssertionError(f"P_N coefficient of q^{j} depends on c: {co}")
        out.append(co.constant())
    return Series("q", tuple(out), order=order)


@dataclass(frozen=True)
class PkDeviation:
    """First index where a P_N series departs from the partition numbers."""

    first_deviation: int | None
    deviation_sign: int  # +1 if p^{(N)}_{k0} > p_{k0}


def pk_conjecture_check(p: Series) -> PkDeviation:
    """Compare P_N = `p_series(N, order)` with p(k), read off 1/eta's series."""
    pk = eta_inverse_power(1, "q", p.order).series
    for k in range(p.order + 1):
        if p[k] != pk[k]:
            return PkDeviation(k, 1 if p[k] > pk[k] else -1)
    return PkDeviation(None, 0)
