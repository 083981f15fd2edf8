"""Workload substrates: the applications whose checkpoints get dumped.

* :mod:`~repro.apps.hpccg` — a real 27-point finite-difference conjugate-
  gradient mini-app (Mantevo HPCCG's structure), weak-scaled.
* :mod:`~repro.apps.cm1` — a 3-D non-hydrostatic stencil time-stepper with
  a hurricane-like vortex (CM1's checkpoint redundancy character).
* :mod:`~repro.apps.synthetic` — a controlled-redundancy generator for
  tests and ablations.
* :mod:`~repro.apps.memory` — registered application memory, the
  transparent-checkpointing stand-in the examples checkpoint.

All of them implement :class:`~repro.apps.base.SegmentedWorkload`: they
describe each rank's checkpoint as named memory segments, and the base
class fingerprints shared segments once — which is what makes the paper's
408-rank configurations cheap to regenerate.
"""

from repro.apps.base import SegmentedWorkload
from repro.apps.hpccg import HPCCG, HPCCGRankSolver
from repro.apps.cm1 import CM1, CM1RankModel
from repro.apps.memory import MemoryRegistry
from repro.apps.synthetic import SyntheticWorkload

__all__ = [
    "CM1",
    "CM1RankModel",
    "HPCCG",
    "HPCCGRankSolver",
    "MemoryRegistry",
    "SegmentedWorkload",
    "SyntheticWorkload",
]
