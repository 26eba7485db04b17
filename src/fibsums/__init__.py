"""fibsums: exact verification of Fibonacci-family weighted sum identities.

The package computes Fibonacci, Lucas, Pell, Pell-Lucas, Gibonacci, and
generalized second-order (Horadam) sequence terms plus Fibonacci, Lucas,
and Chebyshev polynomials in exact arithmetic, and mechanically checks a
catalog of weighted summation identities and divisibility corollaries over
swept parameter grids, emitting deterministic machine-readable reports.
"""

#: The package version, declared only here: pyproject.toml reads it, and
#: every JSON report names it, so no import reads installed metadata.
__version__ = "0.1.0"
