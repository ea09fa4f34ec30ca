"""Each documented argument error of the module API, with its class and
message, and each alarm of a numerical path, reached by patching the numpy
call it guards."""

import numpy as np
import pytest

from rectcft import fitting, freefield, ising, looplattice, virasoro
from rectcft.series import SeriesError, eta_inverse_power

POINTS = [(n, 1.0 / n) for n in range(4, 12)]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: fitting.fit(POINTS, ("N",)), fitting.FitError,
                 "need at least two basis terms", id="fit-one-term"),
    pytest.param(lambda: fitting.fit(POINTS, ("N", "N^7")), fitting.FitError,
                 "unknown basis term 'N^7'", id="fit-unknown-term"),
    pytest.param(lambda: looplattice.dyck_words(7), ValueError,
                 "need an even number of sites", id="dyck-words-odd"),
    pytest.param(lambda: freefield.g_series(-1), ValueError,
                 "cutoff must be >= 0", id="g-series-negative"),
    pytest.param(lambda: freefield.boson_gluing_check(freefield.boson_boundary_state(4), 0),
                 ValueError, "m must be positive", id="boson-gluing-m0"),
    pytest.param(lambda: freefield.fermion_boundary_state(8, freefield.g_series(4)),
                 ValueError, "G table too small for the requested level cutoff",
                 id="fermion-state-small-g"),
    pytest.param(lambda: virasoro.finitized_state(0, 4), ValueError, "need N >= 1",
                 id="finitized-n0"),
    pytest.param(lambda: ising.solve_chain(0), ValueError, "need at least one site",
                 id="solve-chain-0"),
    pytest.param(lambda: eta_inverse_power(1, "q", -1), SeriesError, "order must be >= 0",
                 id="eta-power-negative-order"),
])
def test_argument_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_overlap_sq_alarms_on_a_negative_determinant(monkeypatch):
    # parity zeros may round to tiny negatives, which read 0; below -1e-12
    # a determinant cannot be roundoff
    sol = ising.solve_chain(4)
    monkeypatch.setattr(ising.np.linalg, "det", lambda m: -1e-13)
    assert ising.overlap_sq(sol) == 0.0
    monkeypatch.setattr(ising.np.linalg, "det", lambda m: -1e-6)
    with pytest.raises(ArithmeticError, match=r"^negative overlap determinant -1e-06 at N=4$"):
        ising.overlap_sq(sol)


def test_neg_log_overlap_is_inf_where_the_determinant_is_not_positive(monkeypatch):
    sol = ising.solve_chain(6)
    slogdet = np.linalg.slogdet
    assert np.isfinite(ising.neg_log_overlap(sol))
    monkeypatch.setattr(ising.np.linalg, "slogdet", lambda m: (-1.0, slogdet(m)[1]))
    assert ising.neg_log_overlap(sol) == np.inf
    monkeypatch.setattr(ising.np.linalg, "slogdet", lambda m: (0.0, -np.inf))
    assert ising.neg_log_overlap(sol) == np.inf


def test_g_from_amatrix_singular_solve(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(freefield.np.linalg, "solve", singular)
    with pytest.raises(RuntimeError, match=r"^\(1\+a\) singular at truncation 4$"):
        freefield.g_from_amatrix(4)
