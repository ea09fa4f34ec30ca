"""rectcft: the conformal boundary state of the rectangle, verified three ways.

Modules by concern:
  series      exact rationals, c-polynomials, truncated power series
  virasoro    Verma-module engine, boundary state, amplitudes, P_N
  slitmaps    conformal slit maps and their asymptotics (floating point)
  freefield   free-boson and NS-Majorana coherent-state realizations
  looplattice Temperley-Lieb dense loop model on N strands
  ising       critical transverse-field Ising chain, free/free boundaries
  fitting     finite-size-scaling least squares
  cli         the `rectcft` command
"""

__version__ = "0.1.0"
