"""Verma module of the vacuum over Q[c]: Virasoro action, Shapovalov form,
the rectangle boundary state and its finitized versions, amplitudes,
gluing residuals, and the P_N generating functions.

Basis states are descendants L_{-l1} L_{-l2} ... |0> indexed by integer
partitions (descending tuples, parts >= 2 because L_{-1}|0> = 0).  All
coefficients are CPoly, so identities are checked in Q[c], not at sampled
charge values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .series import (C, CONE, CPoly, CZERO, GradedVector, Series, cpoly,
                     exp_truncated, partition_numbers, series_pow_c_ratio,
                     series_pow_scalar)

Partition = tuple  # descending tuple of ints >= 2; () is the vacuum


@functools.lru_cache(maxsize=None)
def act(n: int, lam: Partition) -> dict:
    """L_n applied to the basis state |lam>, as a {partition: CPoly} map.

    Normal ordering by repeated commutation, [L_m, L_k] = (m-k) L_{m+k}
    + (c/12) m (m^2-1) delta_{m+k,0}; L_n|0> = 0 for n >= -1.
    Treat the returned dict as read-only (it is cached).
    """
    if not lam:
        if n >= -1:
            return {}
        return {(-n,): CONE}
    if n == 0:
        return {lam: cpoly(sum(lam))}
    m1, rest = lam[0], lam[1:]
    if n <= -m1:
        # L_n commutes straight to the front of the descending word
        return {(-n,) + lam: CONE}
    out: dict = {}
    # L_n L_{-m1} = L_{-m1} L_n + (n+m1) L_{n-m1} + (c/12) n(n^2-1) delta_{n,m1}
    for mu, co in act(n, rest).items():
        for nu, co2 in act(-m1, mu).items():
            v = co if co2 is CONE else co * co2
            acc = out.get(nu)
            out[nu] = v if acc is None else acc + v
    if n + m1:
        for nu, co in act(n - m1, rest).items():
            v = co * Fraction(n + m1)
            acc = out.get(nu)
            out[nu] = v if acc is None else acc + v
    if n == m1:
        cterm = C * Fraction(n * (n * n - 1), 12)
        acc = out.get(rest)
        out[rest] = cterm if acc is None else acc + cterm
    return {k: v for k, v in out.items() if not v.is_zero()}


class VermaVector(GradedVector):
    """Finite combination of vacuum descendants over Q[c], truncated at
    level `cutoff`."""

    ring = staticmethod(cpoly)

    def __post_init__(self):
        super().__post_init__()
        for lam in self.terms:
            if sum(lam) > self.cutoff:
                raise ValueError(f"partition {lam} above cutoff {self.cutoff}")

    def restrict(self, cutoff: int) -> "VermaVector":
        return VermaVector({lam: co for lam, co in self.terms.items() if sum(lam) <= cutoff},
                           cutoff)

    def max_level(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def to_json(self):
        return {"cutoff": self.cutoff,
                "terms": [{"partition": list(lam), "coefficient": co.to_json()}
                          for lam, co in sorted(self.terms.items())]}


def vacuum(cutoff: int = 0) -> VermaVector:
    return VermaVector({(): CONE}, cutoff)


def apply_mode(n: int, v: VermaVector) -> VermaVector:
    """L_n applied to v; levels above v.cutoff are dropped."""
    out: dict = {}
    for lam, co in v.terms.items():
        for mu, co2 in act(n, lam).items():
            if sum(mu) > v.cutoff:
                continue
            w = co * co2
            acc = out.get(mu)
            out[mu] = w if acc is None else acc + w
    return VermaVector(out, v.cutoff)


def _raise_chain(parts, v: VermaVector):
    """Apply L_{p} for p in parts (in order) and return the vacuum coefficient."""
    cur = v.terms
    for p in parts:
        nxt: dict = {}
        for lam, co in cur.items():
            if sum(lam) < p:
                continue
            for mu, co2 in act(p, lam).items():
                w = co * co2
                acc = nxt.get(mu)
                nxt[mu] = w if acc is None else acc + w
        cur = nxt
        if not cur:
            return CZERO
    return cur.get((), CZERO)


def shapovalov(u: VermaVector, v: VermaVector) -> CPoly:
    """Bilinear form with L_n^dagger = L_{-n} and <0|0> = 1.

    Cross-level pairings vanish, so only matching levels contribute.
    """
    total = CZERO
    for lam, co in u.terms.items():
        val = _raise_chain(lam, v.level_component(sum(lam)))
        if not val.is_zero():
            total = total + co * val
    return total


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


@dataclass(frozen=True)
class GluingParams:
    """Mode index and corner weights for L_n - L_{-n} - 2n(h_l + (-1)^n h_r)."""

    n: int
    htilde_left: CPoly = field(default_factory=lambda: C * Fraction(-1, 16))
    htilde_right: CPoly = field(default_factory=lambda: C * Fraction(-1, 16))

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("mode index must be >= 1")


def homogeneous_gluing(n: int) -> GluingParams:
    """Identity at both corners: h = 0, so htilde = -c/16 each and the
    constraint becomes L_n - L_{-n} + (n c / 8)[1 + (-1)^n]."""
    return GluingParams(n)


def gluing_residual(v: VermaVector, g: GluingParams) -> VermaVector:
    """(L_n - L_{-n} - 2n(h_l + (-1)^n h_r)) v.

    For v = boundary_state(cutoff) and homogeneous params the components at
    level <= cutoff - n vanish identically in c; levels above that are not
    meaningful because L_n reaches past the truncation.
    """
    n = g.n
    sign = 1 if n % 2 == 0 else -1
    const = (g.htilde_left + g.htilde_right * sign) * Fraction(-2 * n)
    res = apply_mode(n, v).add_scaled(apply_mode(-n, v), Fraction(-1))
    return res.add_scaled(v, const)


def amplitude(v: VermaVector, order: int) -> Series:
    """<v| qhat^{L_0} |v> as a qhat-series with CPoly coefficients.

    The physical amplitude carries the extra prefactor qhat^{-c/24}, which
    is reported separately (see `eta_inverse_power`).  c_n is the Shapovalov
    square of the level-n component.
    """
    if order > v.cutoff:
        raise ValueError(f"order {order} exceeds cutoff {v.cutoff}")
    coeffs = []
    for n in range(order + 1):
        comp = v.level_component(n)
        coeffs.append(shapovalov(comp, comp))
    return Series("qhat", tuple(coeffs), order=order)


def product_amplitude(n_slit_exponent: int | None, order: int) -> Series:
    """Amplitude of a slit-product state, evaluated by applying the adjoint
    exponentials (raising modes, largest first) to each level component.

    Independent of `amplitude`'s Shapovalov route and much faster at high
    level; the two are compared in the tests.  `n_slit_exponent=None` means
    the full boundary state.
    """
    n = slit_factor_count(order) if n_slit_exponent is None else n_slit_exponent
    factors = _slit_factors(n)
    v = slit_product(apply_mode, vacuum(order), order, n)
    coeffs = []
    for lev in range(order + 1):
        comp = v.level_component(lev)
        for k, x in reversed(factors):
            comp = exp_truncated(functools.partial(apply_mode, k), comp, x,
                                 comp.max_level() // k)
        coeffs.append(comp.coeff(()))
    return Series("qhat", tuple(coeffs), order=order)


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
    p = series_pow_c_ratio(amp_q, numerator=2)
    out = []
    for j in range(order + 1):
        co = cpoly(p[j])
        if not co.is_constant():
            raise AssertionError(f"P_N coefficient of q^{j} depends on c: {co}")
        out.append(co.constant())
    return Series("q", tuple(out), order=order)


def p2_closed_form(order: int) -> Series:
    """(1+2q)^{1/2} (1+4q^2)^{5/8} / (1-16q^4)^{3/4} expanded to `order`."""

    def poly(coeffs):
        return Series("q", tuple(Fraction(c) for c in coeffs), order=order)

    f1 = series_pow_scalar(poly([1, 2]), Fraction(1, 2))
    f2 = series_pow_scalar(poly([1, 0, 4]), Fraction(5, 8))
    f3 = series_pow_scalar(poly([1, 0, 0, 0, -16]), Fraction(-3, 4))
    return f1 * f2 * f3


def p2_closed_form_check(order: int) -> bool:
    return p_series(2, order) == p2_closed_form(order)


@dataclass(frozen=True)
class PkDeviation:
    """First index where a P_N series departs from the partition numbers."""

    first_deviation: int | None
    deviation_sign: int  # +1 if p^{(N)}_{k0} > p_{k0}
    value: Fraction | None
    partition_number: int | None


def pk_conjecture_check(p: Series) -> PkDeviation:
    """Compare P_N = `p_series(N, order)` with the partition numbers."""
    pk = partition_numbers(p.order)
    for k in range(p.order + 1):
        if p[k] != pk[k]:
            d = p[k] - pk[k]
            return PkDeviation(k, 1 if d > 0 else -1, p[k], pk[k])
    return PkDeviation(None, 0, None, None)
