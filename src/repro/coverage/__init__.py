"""Maximum coverage: problem abstraction, greedy engines, NEWGREEDI, GREEDI.

The exact engines run the vectorized CSR kernel of
:mod:`repro.coverage.kernel` over :class:`~repro.ris.flat.FlatRRCollection`
stores; the HyperLogLog register banks of :mod:`repro.coverage.sketch`
are the other store, selected by ``backend="sketch"`` on a run.
"""

from .greedi import greedi, partition_sets, randgreedi
from .greedy import (
    BucketQueue,
    GreedyResult,
    greedy_max_coverage,
    naive_greedy_max_coverage,
)
from .kernel import (
    apply_sparse_delta,
    as_flat,
    mark_and_decrement,
    sparse_coverage_delta,
    sparse_decrements,
)
from .newgreedi import NewGreeDiResult, NewGreeDiRounds, gather_coverage_counts, newgreedi
from .problem import CoverageInstance
from .sketch import (
    SketchCoverageState,
    SketchRRCollection,
    estimate_bank_degrees,
    hll_estimate,
    hll_relative_error,
    sketch_lazy_greedy,
)
from .state import CoverageState

__all__ = [
    "CoverageInstance",
    "BucketQueue",
    "GreedyResult",
    "greedy_max_coverage",
    "naive_greedy_max_coverage",
    "NewGreeDiResult",
    "NewGreeDiRounds",
    "newgreedi",
    "gather_coverage_counts",
    "greedi",
    "randgreedi",
    "partition_sets",
    "as_flat",
    "mark_and_decrement",
    "sparse_decrements",
    "sparse_coverage_delta",
    "apply_sparse_delta",
    "CoverageState",
    "SketchRRCollection",
    "SketchCoverageState",
    "sketch_lazy_greedy",
    "hll_estimate",
    "hll_relative_error",
    "estimate_bank_degrees",
]
