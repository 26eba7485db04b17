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

from .identities import (
    ENTRIES,
    Context,
    Entry,
    Evaluation,
    RejectedInstance,
    SuryForms,
    SweepReport,
    UsageError,
    Witness,
    catalog,
    check_divisibility,
    evaluate_identity,
    get_entry,
    sury_f,
    verify_grid,
)
from .polynomials import (
    cheb_T,
    cheb_U,
    fib_poly,
    lucas_poly,
    poly,
    poly_add,
    poly_eval,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_sub,
    render_poly,
)
from .scalars import (
    CharRoots,
    DomainError,
    QuadExt,
    fib_roots,
    make_roots,
    render_scalar,
)
from .sequences import (
    HoradamParams,
    SeqTable,
    fib,
    gibonacci,
    horadam_w,
    lucas,
    lucas_u,
    lucas_v,
    neg_one,
    pell,
    pell_lucas,
)

__all__ = [
    "CharRoots", "Context", "DomainError", "ENTRIES", "Entry", "Evaluation",
    "HoradamParams", "QuadExt", "RejectedInstance", "SeqTable", "SuryForms",
    "SweepReport", "UsageError", "Witness", "catalog", "cheb_T", "cheb_U",
    "check_divisibility", "evaluate_identity", "fib", "fib_poly", "fib_roots",
    "get_entry", "gibonacci", "horadam_w", "lucas", "lucas_poly", "lucas_u",
    "lucas_v", "make_roots", "neg_one", "pell", "pell_lucas", "poly",
    "poly_add", "poly_eval", "poly_mul", "poly_pow", "poly_scale", "poly_sub",
    "render_poly", "render_scalar", "sury_f", "verify_grid",
]
