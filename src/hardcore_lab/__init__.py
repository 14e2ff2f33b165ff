"""Exact-arithmetic laboratory for the hard-core model on small graphs.

Partition functions, occupancy and variance fractions, marginals, the seven
polynomial orderings, certified transcendental enclosures, and a Glauber
sampler, all over exact rationals (the sampler alone uses floats, and only
for statistics).
"""

from .corpus import random_triangle_free_graph
from .graphs import (
    Graph,
    disjoint_union,
    encode_graph6,
    from_edges,
    generate,
    parse_graph6,
    read_edge_list,
)
from .hardcore import (
    HardCoreProfile,
    brute_force_polynomial,
    cycle_polynomial,
    independence_polynomial,
    path_polynomial,
    profile,
    subset_polynomial,
    var_of_polynomial,
    variance_fraction,
    variance_via_marginals,
)
from .intervals import (
    RationalInterval,
    entropy_interval,
    exp_interval,
    free_energy_interval,
    lambert_w_bisection,
    lambert_w_interval,
    log1p_interval,
    log_series,
)
from .multipoly import MultiPoly
from .orderings import (
    OrderingKind,
    compare,
    implication_web_check,
    var_difference_certificate,
)
from .polynomials import Poly, RatFunc
from .roots import isolate_positive_roots, nonneg_on_halfline, nonneg_on_segment
from .sampler import EstimateReport, SplitMix64, estimate
from .series import g_series
from .verdict import Verdict

__version__ = "0.1.0"
