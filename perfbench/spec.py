"""What the benchmark runs and reports: workloads, their sizes, the output
checks each one makes, and the metric names with their units.

Standard library only: both run.py and the worker processes import it,
and run.py must not pay for importing numpy or rectcft.
"""

WORKLOADS = ("loop", "ising", "symbolic", "freefield")

# The physics inputs are fixed because the acceptance bounds are defined on
# them.  "tiny" exists only for the harness smoke test.
SIZES = {
    "full": {
        "loop": {"p": ("3", "inf"), "nmin": 8, "nmax": 22, "kmax": 3},
        "ising": {"nmin": 2, "nmax": 500, "kmax": 10},
        "symbolic": {"amplitude_order": 40, "pn_exponent": 3, "pn_order": 20},
        "freefield": {"boson_order": 48, "gluing_level": 24, "level": 20,
                      "factors": 4, "g_order": 32, "fermion_order": 32,
                      "amatrix": 400},
    },
    "tiny": {
        "loop": {"p": ("3", "inf"), "nmin": 8, "nmax": 12, "kmax": 3},
        # kmax 4, not 10: below N = 22 the k = 5 state has too few finite
        # -log points for its ratio fit and `rectcft ising` exits 1.  The
        # full workload keeps that state and reports it as ising.finite_ratio.
        "ising": {"nmin": 2, "nmax": 20, "kmax": 4},
        "symbolic": {"amplitude_order": 12, "pn_exponent": 3, "pn_order": 8},
        "freefield": {"boson_order": 8, "gluing_level": 8, "level": 8,
                      "factors": 3, "g_order": 8, "fermion_order": 8,
                      "amatrix": 400},
    },
}

CHECKS = {
    "loop": ("exit_status", "rows_complete", "csv_same_in_run",
             "p3_a1", "p3_b1", "p3_b2_zero", "pinf_a1", "pinf_b1", "pinf_b2_zero"),
    "ising": ("exit_status", "odd_parity_zero", "csv_same_in_run",
              "a1", "a1_spread", "alpha", "b3", "b7", "b8"),
    "symbolic": ("exit_status", "eta_identity", "pn_245_8",
                 "amplitude_digest", "pn_digest"),
    "freefield": ("boson_eta", "boson_product_formula", "boson_gluing",
                  "boson_virasoro_product", "fermion_eta", "fermion_annihilation",
                  "fermion_virasoro_product", "g_amatrix", "exact_digest"),
}

# Finite-size-fit bounds hold only at the full sizes they were set for.
FIT_CHECKS = {"p3_a1", "p3_b1", "p3_b2_zero", "pinf_a1", "pinf_b1", "pinf_b2_zero",
              "a1", "a1_spread", "alpha", "b3", "b7", "b8"}

# Checks run.py makes across the worker processes of one run; the rest are
# made by each worker on its own outputs.
RUN_CHECKS = {"csv_same_in_run"}


def checks(workload: str, profile: str) -> tuple:
    return tuple(c for c in CHECKS[workload]
                 if profile == "full" or c not in FIT_CHECKS)


# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("check_pass_ratio", "ratio", "higher"),
)

# A name ending in .s or _s is the total time of the span named by the rest,
# .self_s its time minus the spans under it, .calls or _calls its call
# count (see spans.layer_metrics).  The others are derived counters.
PER_LAYER = (
    ("looplattice.enumerate_links.s", "s", "lower"),
    ("looplattice.enumerate_links.calls", "count", "lower"),
    ("looplattice.sparse_structure.s", "s", "lower"),
    ("looplattice.sparse_structure.calls", "count", "lower"),
    ("looplattice.eigs.s", "s", "lower"),
    ("looplattice.eigs.calls", "count", "lower"),
    ("looplattice.spectrum_sparse.self_s", "s", "lower"),
    ("looplattice.spectrum_dense.self_s", "s", "lower"),
    ("looplattice.gram.s", "s", "lower"),
    ("looplattice.hamiltonian.s", "s", "lower"),
    ("looplattice.gram_row.s", "s", "lower"),
    ("looplattice.gram_row.calls", "count", "lower"),
    ("looplattice.dim_total", "count", "lower"),
    ("looplattice.physical_per_gram_row", "ratio", "higher"),
    ("ising.solve_chain.s", "s", "lower"),
    ("ising.solve_chain.calls", "count", "lower"),
    ("ising.correlation_matrix.s", "s", "lower"),
    ("ising.correlation_matrix.calls", "count", "lower"),
    ("ising.overlap_sq.self_s", "s", "lower"),
    ("ising.neg_log_overlap.self_s", "s", "lower"),
    ("ising.enumerate_low_states.s", "s", "lower"),
    ("ising.finite_ratio", "ratio", "higher"),
    ("virasoro.product_amplitude.s", "s", "lower"),
    ("virasoro.product_amplitude.calls", "count", "lower"),
    ("virasoro.apply_mode.lower_s", "s", "lower"),
    ("virasoro.apply_mode.lower_calls", "count", "lower"),
    ("virasoro.apply_mode.raise_s", "s", "lower"),
    ("virasoro.apply_mode.raise_calls", "count", "lower"),
    ("virasoro.p_series.calls", "count", "lower"),
    ("virasoro.act.hits", "count", "higher"),
    ("virasoro.act.misses", "count", "lower"),
    ("virasoro.act.hit_ratio", "ratio", "higher"),
    ("series.CPoly.mul_s", "s", "lower"),
    ("series.CPoly.mul_calls", "count", "lower"),
    ("series.series_log.s", "s", "lower"),
    ("series.series_exp.s", "s", "lower"),
    ("series.series_pow_c_ratio.s", "s", "lower"),
    ("series.eta_inverse_power.s", "s", "lower"),
    ("freefield.boson_amplitude.s", "s", "lower"),
    ("freefield.fermion_amplitude.s", "s", "lower"),
    ("freefield.boson_boundary_state.s", "s", "lower"),
    ("freefield.fermion_boundary_state.s", "s", "lower"),
    ("freefield.virasoro_product_state.s", "s", "lower"),
    ("freefield.g_series.s", "s", "lower"),
    ("freefield.g_from_amatrix.s", "s", "lower"),
    ("freefield.boson_virasoro.calls", "count", "lower"),
    ("freefield.fermion_virasoro.calls", "count", "lower"),
    ("freefield.boson_mode.calls", "count", "lower"),
    ("freefield.fermion_mode.calls", "count", "lower"),
    ("fitting.fit.s", "s", "lower"),
    ("fitting.fit.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)
