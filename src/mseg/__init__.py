"""Exact-arithmetic toolkit for multisegment combinatorics.

Decides the dense-orbit conditions GLS / LC / IG on multisegments by
randomized exact rank tests, implements the end-stripping involution,
crossing-free matchings and point derivatives, and ships property suites
that stress the consistency statements relating all of these.
"""

from .conditions import (
    CoeffVector,
    Verdict,
    check_gls,
    check_ig,
    check_lc,
    lc_matrix,
    li_for_good,
)
from .errors import (
    EmptyMultisegmentError,
    EmptySegmentError,
    InvalidMatchingError,
    MsegError,
    NotApplicableError,
    ParseError,
    PreconditionError,
    SupportMismatchError,
    TooLargeError,
)
from .harness import (
    GenParams,
    PropertyReport,
    SUITES,
    gen_ladder,
    gen_ms,
    replay_violation,
)
from .linalg import (
    MERSENNE61,
    RankConfig,
    rank_mod_p,
    sample_coeffs,
)
from .segments import (
    CuspidalPoint,
    Multisegment,
    Segment,
    ms_filter,
    precedes,
)
from .zelevinsky import (
    DerivativeResult,
    Matching,
    best_matching,
    cross_pairs,
    derivative,
    enumerate_maximal_matchings,
    frontier_defined,
    is_maximal_matching,
    leading_indices,
    make_matching,
    matching_equivalent,
    mw_dual,
    mw_frontier,
    mw_step,
    rho_frontier,
    rho_sets,
    soc_cuspidal,
)

__version__ = "0.1.0"
