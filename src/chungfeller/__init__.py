"""Lattice-path combinatorics toolkit around the Chung-Feller theorem.

The number of balanced +-1 paths of length 2n with exactly 2k steps
below the axis is the Catalan number C_n, independently of k.  This
package makes that equidistribution executable and cross-verifiable
through four separate mechanisms: brute-force enumeration, a counting
recurrence, an explicit bijection between adjacent negativity classes,
and exact generating-function expansion; the Cycle Lemma supplies a
fifth view and an exactly uniform random sampler.

Every public name below is re-exported from the module that defines it,
which is imported the first time one of its names is used (PEP 562), so
`import chungfeller` loads no mechanism.
"""

import importlib

_EXPORTS = {
    "bijection": ("lift", "phi_minus", "phi_plus"),
    "counting": (
        "DEFAULT_ENUMERATION_BOUND",
        "catalan",
        "central_binomial",
        "count_recurrence",
        "enumerate_balanced",
        "partition_by_negativity",
    ),
    "cycle": (
        "CyclicSequence",
        "canonical_rotation",
        "dominating_shifts",
        "parse_sequence",
        "partial_sums",
        "rank_order",
        "render_sequence",
    ),
    "errors": (
        "BoundExceeded",
        "ChungFellerError",
        "IndexOutOfRange",
        "InvalidCharacter",
        "NoNegativePrime",
        "NoPositivePrime",
        "NonPositiveSum",
        "NonUnitSum",
        "NonzeroConstantTerm",
        "NotBalanced",
        "NotDyckPath",
        "OrderMismatch",
    ),
    "paths": (
        "DOWN",
        "UP",
        "LatticePath",
        "factor_primes",
        "is_dyck",
        "negativity",
        "parse_path",
        "render_path",
    ),
    "sampler": ("RandomSource", "sample_balanced", "sample_dyck", "sample_k_negative"),
    "series": (
        "BivariateSeries",
        "geometric_inverse",
        "n_series",
        "prime_series_neg",
        "prime_series_pos",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # bound once, as an eager import would
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
