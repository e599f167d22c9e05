"""Lattice-path combinatorics toolkit around the Chung-Feller theorem.

The number of balanced +-1 paths of length 2n with exactly 2k steps
below the axis is the Catalan number C_n, independently of k.  This
package makes that equidistribution executable and cross-verifiable
through four separate mechanisms: brute-force enumeration, a counting
recurrence, an explicit bijection between adjacent negativity classes,
and exact generating-function expansion; the Cycle Lemma supplies a
fifth view and an exactly uniform random sampler.
"""

from .bijection import (
    lift,
    phi_minus,
    phi_plus,
)
from .counting import (
    DEFAULT_ENUMERATION_BOUND,
    catalan,
    central_binomial,
    count_recurrence,
    enumerate_balanced,
    partition_by_negativity,
)
from .cycle import (
    CyclicSequence,
    canonical_rotation,
    dominating_shifts,
    nonpositive_count_at_rank,
    parse_sequence,
    partial_sums,
    precedes,
    rank_order,
    render_sequence,
    rotate,
    shifted_partial_sum,
)
from .errors import (
    BoundExceeded,
    ChungFellerError,
    IndexOutOfRange,
    InvalidCharacter,
    NoNegativePrime,
    NoPositivePrime,
    NonPositiveSum,
    NonUnitSum,
    NonzeroConstantTerm,
    NotBalanced,
    NotDyckPath,
    OrderMismatch,
)
from .paths import (
    DOWN,
    UP,
    LatticePath,
    factor_primes,
    is_dyck,
    negativity,
    parse_path,
    render_path,
)
from .sampler import RandomSource, sample_balanced, sample_dyck, sample_k_negative
from .series import (
    BivariateSeries,
    catalan_series,
    geometric_inverse,
    n_series,
    prime_series_neg,
    prime_series_pos,
)

__version__ = "0.1.0"
