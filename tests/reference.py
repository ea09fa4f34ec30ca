"""Scalar references for the vectorised loop-model code, used by the tests.

Each works on one link state at a time, given as a tuple (or row) of
partner indices, the way the link basis was first written."""

from __future__ import annotations

import numpy as np

from rectcft.looplattice import adjacent_state, link_basis


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
