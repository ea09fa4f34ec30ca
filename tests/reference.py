"""Plain references that the package is tested against, used only by the tests.

- Q[c] as a tuple of Fractions, c^0 first, the ring `series.CPoly` stores
  as integer numerators over one denominator.
- The Shapovalov-form route to the Virasoro amplitude, against which
  `virasoro.product_amplitude` is checked, and the closed form of P_2.
- Scalar references for the vectorised loop-model code.  Each works on one
  link state at a time, given as a tuple (or row) of partner indices, the
  way the link basis was first written.  And the loop spectrum from one
  dense eig of the whole link-basis H, with no reflection sectors, against
  which the sector solve is checked.
- The free-field mode-word sum that acts every word on every key and
  tests the level once, on the final key, against which
  `freefield.mode_sum` (which acts only where the result is kept) is
  checked.
- The Ising chain's 2^N brute-force diagonalization (N <= 12), the 2^N
  free-fermion spectrum it is compared with, and the orthogonality of the
  single-particle modes."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from rectcft.ising import FreeFermionSolution
from rectcft.looplattice import (_physical_states, adjacent_state, gram_row, hamiltonian,
                                 link_basis)
from rectcft.series import CZERO, CPoly, Series, series_pow_scalar
from rectcft.virasoro import VermaVector, apply_mode

# ---------------------------------------------------------------- Q[c]


def poly(coeffs) -> tuple:
    """Coefficients as Fractions, trailing zeros trimmed."""
    cs = [Fraction(x) for x in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def poly_neg(a) -> tuple:
    return tuple(-x for x in a)


def poly_mul(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def poly_eval(a, x) -> Fraction:
    return sum((co * Fraction(x) ** k for k, co in enumerate(a)), Fraction(0))


# ------------------------------------------------------- Shapovalov route


def shapovalov(u: VermaVector, v: VermaVector) -> CPoly:
    """Bilinear form with L_n^dagger = L_{-n} and <0|0> = 1.

    Cross-level pairings vanish, so only matching levels contribute.
    """
    total = CZERO
    for lam, co in u.terms.items():
        w = v.level_component(sum(lam))
        for p in lam:
            w = apply_mode(p, w)
        val = w.coeff(())
        if not val.is_zero():
            total = total + co * val
    return total


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


def restrict(v: VermaVector, cutoff: int) -> VermaVector:
    """The terms of v at level <= cutoff, as a vector truncated there."""
    return VermaVector({lam: co for lam, co in v.terms.items() if sum(lam) <= cutoff}, cutoff)


def p2_closed_form(order: int) -> Series:
    """(1+2q)^{1/2} (1+4q^2)^{5/8} / (1-16q^4)^{3/4} expanded to `order`."""

    def q_poly(coeffs):
        return Series("q", tuple(Fraction(c) for c in coeffs), order=order)

    f1 = series_pow_scalar(q_poly([1, 2]), Fraction(1, 2))
    f2 = series_pow_scalar(q_poly([1, 0, 4]), Fraction(5, 8))
    f3 = series_pow_scalar(q_poly([1, 0, 0, 0, -16]), Fraction(-3, 4))
    return f1 * f2 * f3


# ------------------------------------------------------------ loop model


def apply_tl(i: int, state):
    """e_i on a link state (pairs sites i, i+1, 0-based i <= N-2).

    Returns (new_state, closed_loop): the new pairing joins (i, i+1) and the
    former partners of i and i+1; a closed loop appears iff i and i+1 were
    already partners (diagrammatically worth a factor beta)."""
    state = tuple(int(x) for x in state)
    a, b = state[i], state[i + 1]
    if a == i + 1:
        return state, True
    t = list(state)
    t[i], t[i + 1] = i + 1, i
    t[a], t[b] = b, a
    return tuple(t), False


def loops_between(s1, s2) -> int:
    """Closed loops formed by gluing s2 against the mirror image of s1:
    the number of orbits of the composition of the two involutions."""
    n = len(s1)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = s2[x]
            seen[y] = True
            x = s1[y]
    return count


def boundary_link_state(n_sites: int, beta: float) -> np.ndarray:
    """beta^{-N/2} on the all-adjacent-arcs pattern, as a link-basis vector."""
    partners = link_basis(n_sites).partners
    v = np.zeros(len(partners))
    v[(partners == adjacent_state(n_sites)).all(axis=1)] = beta ** (-n_sites / 2)
    return v


def full_space_spectrum(n_sites: int, beta: float, count: int):
    """The lowest `count`+1 physical states (fewer if there are fewer) from
    one dense eig of the whole H, right and left, through the package's
    physical-state rule; parity 0 marks that no sector was used."""
    h = hamiltonian(n_sites, beta)
    energies, left, right = sla.eig(h, left=True)
    order = np.argsort(energies.real)
    boundary = gram_row(link_basis(n_sites).partners, beta, adjacent_state(n_sites))
    return _physical_states(n_sites, beta, h, energies.real[order], right.real[:, order],
                            left.real[:, order], count, boundary, 0)


# ------------------------------------------------------------ free fields


def mode_sum(act, words, v, keep):
    """`freefield.mode_sum` with every word acted on every key of v, each
    final key then kept if its level is <= `keep`."""
    level = v.level
    acc: dict = {}
    for w, word in words:
        for start, co in v.terms.items():
            key, f = start, 1
            for j in reversed(word):
                hit = act(j, key)
                if hit is None:
                    break
                s, key = hit
                f *= s
            else:
                if level(key) <= keep:
                    acc[key] = acc.get(key, 0) + co * w * f
    return type(v)(acc, v.cutoff)


# ------------------------------------------------------------ Ising chain


def orthogonality_residual(sol: FreeFermionSolution) -> float:
    n = sol.n_sites
    rp = np.abs(sol.phi_plus @ sol.phi_plus.T - np.eye(n)).max()
    rm = np.abs(sol.phi_minus @ sol.phi_minus.T - np.eye(n)).max()
    return max(rp, rm)


def brute_force_reference(n_sites: int):
    """Dense 2^N diagonalization of the spin Hamiltonian, with overlaps of
    every eigenstate against the all-up product state.

    Returns (energies ascending, |<up...up|E_j>|^2 in the same order).
    Only for n_sites <= 12."""
    if n_sites > 12:
        raise ValueError("brute force limited to 12 sites")
    n = n_sites
    dim = 2 ** n
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])

    def site_op(op, pos):
        out = np.array([[1.0]])
        for j in range(n):
            out = np.kron(out, op if j == pos else np.eye(2))
        return out

    h = np.zeros((dim, dim))
    for i in range(n):
        h -= 0.5 * site_op(sz, i)
    for i in range(n - 1):
        h -= 0.5 * site_op(sx, i) @ site_op(sx, i + 1)
    energies, vectors = np.linalg.eigh(h)
    up = np.zeros(dim)
    up[0] = 1.0  # |up...up> is index 0 in the kron ordering
    return energies, (vectors.T @ up) ** 2


def many_body_spectrum(sol: FreeFermionSolution):
    """All 2^N energies sum_{k in S} Lambda_k - (1/2) sum Lambda, ascending."""
    lam = sol.energies
    base = -0.5 * lam.sum()
    out = []
    for r in range(sol.n_sites + 1):
        for s in itertools.combinations(range(1, sol.n_sites + 1), r):
            out.append((base + sum(lam[k - 1] for k in s), s))
    out.sort()
    return out
