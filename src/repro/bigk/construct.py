"""Two-word names for width-generic kernels, kept for the frozen benchmark.

Big-k construction has no pipeline of its own: MSP is k-agnostic as
long as the minimizer length P fits one word (P <= 31), and Step 2 —
kmer packing, observations, pre-aggregation, the table and the merge —
runs the width-generic code of :mod:`repro.core.subgraph` and
:mod:`repro.graph.merge` over two key planes.
"""

from __future__ import annotations

from ..core.subgraph import block_observations, preaggregate_observations
from ..graph.merge import merge_disjoint
from ..msp.records import SuperkmerBlock

flat_kmers_2w = SuperkmerBlock.flat_kmers
block_observations_2w = block_observations
preaggregate_observations_2w = preaggregate_observations
merge_bigk_disjoint = merge_disjoint
