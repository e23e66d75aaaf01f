"""Statistical depth functions and the paper's depth-based baselines.

Every depth notion runs on the blocked, vectorized kernel layer of
:mod:`repro.depth._kernels` (scratch bounded by that module's constant
budget, optional ``context`` worker-pool fan-out).  The original loop
implementations live in ``tests/oracles.py``: the equivalence oracles
the property tests pin the kernels against.
"""

from repro.depth._kernels import DEFAULT_BLOCK_BYTES
from repro.depth.dirout import DirectionalOutlyingness, directional_outlyingness, dirout_scores
from repro.depth.functional import aggregate_depth, functional_depth, pointwise_depth_profile
from repro.depth.funta import funta_depth, funta_outlyingness

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "DirectionalOutlyingness",
    "aggregate_depth",
    "directional_outlyingness",
    "dirout_scores",
    "functional_depth",
    "funta_depth",
    "funta_outlyingness",
    "pointwise_depth_profile",
]
