"""The timed calls of each workload, and the checks on their outputs.

A workload is a `run(ctx)` that makes the timed calls into rectcft and
returns what the checks need, and a `checks(ctx, out)` that returns one
zero-argument predicate per check name.  In `out`, "status" lists the exit
codes of the CLI calls and "csv" names a CSV output whose digest must
repeat across the runs of one invocation.  The seed (ctx.rng) only permutes
independent steps, so the outputs and the amount of work do not depend on it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from rectcft import cli, freefield
from rectcft.series import eta_inverse_power

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())

# Criterion 9 reference fits, p = inf: (a1, a1 error, <B|1>, <B|1> error).
PINF_REFERENCE = (-0.11706, 0.00762, 0.65330, 0.01789)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _n_values(nmin, nmax):
    return range(nmin + nmin % 2, nmax + 1, 2)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# ------------------------------------------------------------------- loop


def run_loop(ctx):
    s = ctx.size
    ps = list(s["p"])
    ctx.rng.shuffle(ps)
    status = cli.main(["loop", "--p", ",".join(ps), "--nmin", str(s["nmin"]),
                       "--nmax", str(s["nmax"]), "--kmax", str(s["kmax"]),
                       "--out", str(ctx.work / "loop.csv"),
                       "--summary-out", str(ctx.work / "loop_fits.json")])
    return {"status": [status], "csv": ctx.work / "loop.csv"}


def check_loop(ctx, out):
    s = ctx.size
    rows = _read_csv(ctx.work / "loop.csv")
    fits = json.loads((ctx.work / "loop_fits.json").read_text())
    p3, pinf = fits["3.0"], fits["inf"]
    a1, a1_err, b1, b1_err = PINF_REFERENCE
    return {
        "exit_status": lambda: out["status"] == [0],
        "rows_complete": lambda: len(rows) == (len(s["p"]) * (s["kmax"] + 1)
                                               * len(_n_values(s["nmin"], s["nmax"]))),
        "p3_a1": lambda: -0.066 <= p3["a1"] <= -0.059,
        "p3_b1": lambda: abs(p3["overlaps"]["1"]["value"] - 0.5) < 0.01,
        "p3_b2_zero": lambda: p3["overlaps"]["2"]["max_abs_for_n_ge_10"] < 1e-8,
        "pinf_a1": lambda: abs(pinf["a1"] - a1) < 2 * a1_err,
        "pinf_b1": lambda: abs(pinf["overlaps"]["1"]["value"] - b1) < 2 * b1_err,
        "pinf_b2_zero": lambda: pinf["overlaps"]["2"]["max_abs_for_n_ge_10"] < 1e-8,
    }


# ------------------------------------------------------------------ ising


def run_ising(ctx):
    s = ctx.size
    status = cli.main(["ising", "--nmin", str(s["nmin"]), "--nmax", str(s["nmax"]),
                       "--kmax", str(s["kmax"]),
                       "--out", str(ctx.work / "ising.csv"),
                       "--summary-out", str(ctx.work / "ising_fits.json")])
    return {"status": [status], "csv": ctx.work / "ising.csv"}


def check_ising(ctx, out):
    rows = _read_csv(ctx.work / "ising.csv")
    fits = json.loads((ctx.work / "ising_fits.json").read_text())
    ov = fits["overlaps"]
    forbidden = {k for k, o in ov.items() if o["parity_forbidden"]}
    # The k = 5 state is not checked: its value is a fit to roundoff today.
    return {
        "exit_status": lambda: out["status"] == [0],
        "odd_parity_zero": lambda: bool(forbidden) and all(
            ov[k]["max_det"] < 1e-12 for k in forbidden) and all(
            float(r[3]) < 1e-12 for r in rows if r[1] in forbidden),
        "a1": lambda: abs(fits["a1"] + 0.0625) < 1e-4,
        "a1_spread": lambda: fits["a1_spread"] < 1e-3,
        "alpha": lambda: abs(fits["alpha"] - 1.01937) < 2e-3,
        "b3": lambda: abs(ov["3"]["value"] - 0.5) < 5e-4,
        "b7": lambda: abs(ov["7"]["value"] - 0.125) < 5e-4,
        "b8": lambda: abs(ov["8"]["value"] - 0.625) < 5e-4,
    }


# --------------------------------------------------------------- symbolic


def run_symbolic(ctx):
    s = ctx.size
    # Fixed order: pn runs with the act cache that amplitude has warmed.
    return {"status": [
        cli.main(["amplitude", "--order", str(s["amplitude_order"]),
                  "--out", str(ctx.work / "amplitude.json")]),
        cli.main(["pn", "--slits-exponent", str(s["pn_exponent"]),
                  "--order", str(s["pn_order"]), "--out", str(ctx.work / "pn.json")]),
    ]}


def check_symbolic(ctx, out):
    amp_bytes = (ctx.work / "amplitude.json").read_bytes()
    pn_bytes = (ctx.work / "pn.json").read_bytes()
    digests = DIGESTS[ctx.profile]
    return {
        "exit_status": lambda: out["status"] == [0, 0],
        "eta_identity": lambda: json.loads(amp_bytes)["eta_identity_passes"] is True,
        "pn_245_8": lambda: json.loads(pn_bytes)["coefficients"][8] == "245/8",
        "amplitude_digest": lambda: sha256(amp_bytes) == digests["symbolic.amplitude"],
        "pn_digest": lambda: sha256(pn_bytes) == digests["symbolic.pn"],
    }


# -------------------------------------------------------------- freefield


def _boson_gluing(level):
    b = freefield.boson_boundary_state(level)
    return all(freefield.boson_gluing_check(b, m).is_zero() for m in range(1, level + 1))


def _boson_virasoro_product(level, factors):
    prod = freefield.virasoro_product_state(
        freefield.boson_virasoro, freefield.boson_vacuum(level), level, factors)
    return prod == freefield.boson_boundary_state(level)


def _fermion_annihilation(level):
    g = freefield.g_series(level)
    b = freefield.fermion_boundary_state(level, g)
    return all(freefield.fermion_annihilation_check(b, m, g).is_zero()
               for m in range(level))


def _fermion_virasoro_product(level, factors):
    prod = freefield.virasoro_product_state(
        freefield.fermion_virasoro, freefield.fermion_vacuum(level), level, factors)
    return prod == freefield.fermion_boundary_state(level, freefield.g_series(level))


def run_freefield(ctx):
    # Module API: the CLI caps the fermion order at 20 and the Virasoro
    # comparison at level 12.
    s = ctx.size
    steps = {
        "boson_amplitude": lambda: freefield.boson_amplitude(s["boson_order"]),
        "boson_product_formula": lambda: freefield.boson_product_formula(s["boson_order"]),
        "boson_gluing": lambda: _boson_gluing(s["gluing_level"]),
        "boson_virasoro_product": lambda: _boson_virasoro_product(s["level"], s["factors"]),
        "g_series": lambda: freefield.g_series(s["g_order"]),
        "fermion_amplitude": lambda: freefield.fermion_amplitude(s["fermion_order"]),
        "fermion_annihilation": lambda: _fermion_annihilation(s["level"]),
        "fermion_virasoro_product": lambda: _fermion_virasoro_product(s["level"], s["factors"]),
        "g_from_amatrix": lambda: freefield.g_from_amatrix(s["amatrix"]),
    }
    order = list(steps)
    ctx.rng.shuffle(order)
    return {name: steps[name]() for name in order}


def freefield_exact_json(out) -> bytes:
    """The exact series of the freefield workload, canonically encoded."""
    return json.dumps({
        "boson_amplitude": out["boson_amplitude"].to_json(),
        "boson_product_formula": out["boson_product_formula"].to_json(),
        "g_series": [[m, n, str(g)] for m, n, g in out["g_series"].pairs()],
        "fermion_amplitude": out["fermion_amplitude"].to_json(),
    }, sort_keys=True).encode()


def check_freefield(ctx, out):
    s = ctx.size
    g = out["g_series"]
    gn = out["g_from_amatrix"]
    eta = {r: eta_inverse_power(Fraction(1, r), "qhat", s[key]).series
           for r, key in ((2, "boson_order"), (4, "fermion_order"))}
    return {
        "boson_eta": lambda: out["boson_amplitude"] == eta[2],
        "boson_product_formula": lambda: out["boson_amplitude"] == out["boson_product_formula"],
        "boson_gluing": lambda: out["boson_gluing"] is True,
        "boson_virasoro_product": lambda: out["boson_virasoro_product"] is True,
        "fermion_eta": lambda: out["fermion_amplitude"] == eta[4],
        "fermion_annihilation": lambda: out["fermion_annihilation"] is True,
        "fermion_virasoro_product": lambda: out["fermion_virasoro_product"] is True,
        # the sign-kernel route within 5e-3 of the exact table (criterion 7)
        "g_amatrix": lambda: max(abs(gn[m, n] - float(g[m, n]))
                                 for m in range(8) for n in range(8)) < 5e-3,
        "exact_digest": lambda: (sha256(freefield_exact_json(out))
                                 == DIGESTS[ctx.profile]["freefield.exact"]),
    }


WORKLOADS = {
    "loop": (run_loop, check_loop),
    "ising": (run_ising, check_ising),
    "symbolic": (run_symbolic, check_symbolic),
    "freefield": (run_freefield, check_freefield),
}
