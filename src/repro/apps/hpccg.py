"""HPCCG: the Mantevo conjugate-gradient mini-app (weak-scaled).

Generates a 27-point finite-difference operator for a 3-D chimney domain —
one sub-block per rank, exactly HPCCG's structure — and runs real CG
iterations on it.  The checkpoint state (what AC-FTE would capture from the
heap) is:

* ``values``  — the 27-wide coefficient array (27.0 diagonal, -1.0
  neighbours, zero-padded at global boundaries).  Its content is periodic
  with the 27-entry row pattern, so 4 KB pages cycle through a handful of
  phases: it deduplicates *locally* almost entirely — one of the two big
  redundancy sources the paper measures.
* ``indices`` — the 27-wide column-index array.  Row-dependent, so locally
  unique; but identical across all ranks with the same boundary class —
  the *naturally distributed* redundancy coll-dedup exploits.
* ``b``, ``x``, ``r``, ``p``, ``Ap`` — CG vectors after ``max_iterations``
  steps.  HPCCG constructs ``b`` for an all-ones solution, so these are
  shared across ranks of the same boundary class.
* ``geometry`` — per-row global coordinates (x/y/z as float64), the
  rank-unique part of the heap (differs by sub-block offset on every
  rank).  ``unique_doubles_per_row`` sizes it; the default of 3 calibrates
  the global dedup ratio into the paper's measured band (~5-8 % unique at
  408 ranks).

Ranks with the same *boundary class* (which of their 6 faces touch the
global domain boundary) have bitwise-identical solver state, so it is
computed once per class — the same translational symmetry that produces
the redundancy in the real application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.base import Segment, SegmentedWorkload, process_grid_3d

_OFFSETS = [
    (dx, dy, dz)
    for dz in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
]

BoundaryClass = Tuple[bool, bool, bool, bool, bool, bool]


class HPCCGRankSolver:
    """The CG machinery for one rank's sub-block.

    Usable standalone (the checkpoint examples step every rank's solver)
    and by the :class:`HPCCG` workload generator.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        nz: int,
        boundary: BoundaryClass = (True,) * 6,
    ) -> None:
        self.nx, self.ny, self.nz = nx, ny, nz
        self.nrows = nx * ny * nz
        self.boundary = boundary
        self.values, self.indices, self.n_ghosts = self._generate_matrix()
        self.b = self._generate_rhs()
        self.x = np.zeros(self.nrows)
        self.r = self.b.copy()
        self.p = self.r.copy()
        self.Ap = np.zeros(self.nrows)
        self._rs_old = float(self.r @ self.r)
        self.iterations_done = 0

    # -- problem generation ------------------------------------------------------
    def _generate_matrix(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """27-wide padded (ELL-format) operator, HPCCG style.

        Neighbours across a face on the *global* domain boundary do not
        exist (zero-padded slots).  Neighbours across an internal
        (inter-rank) face do exist — they are ghost cells holding the
        partner's data, numbered ``nrows, nrows+1, ...`` in deterministic
        (slot-major, row-major) order.  Boundary *classes* therefore
        produce different coefficient/index bytes (corner vs face vs
        interior ranks), exactly like a real block decomposition — that is
        the cross-rank redundancy structure the paper measures.
        """
        nx, ny, nz = self.nx, self.ny, self.nz
        bxm, bxp, bym, byp, bzm, bzp = self.boundary
        x = np.arange(nx)
        y = np.arange(ny)
        z = np.arange(nz)
        X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
        X = X.ravel(order="F")
        Y = Y.ravel(order="F")
        Z = Z.ravel(order="F")
        lin = (Z * ny + Y) * nx + X

        values = np.zeros((self.nrows, 27), dtype=np.float64)
        indices = np.zeros((self.nrows, 27), dtype=np.int32)
        ghost_cursor = self.nrows
        for slot, (dx, dy, dz) in enumerate(_OFFSETS):
            if dx == 0 and dy == 0 and dz == 0:
                values[:, slot] = 27.0
                indices[:, slot] = lin
                continue
            nxp, nyp, nzp = X + dx, Y + dy, Z + dz
            inside = (
                (nxp >= 0)
                & (nxp < nx)
                & (nyp >= 0)
                & (nyp < ny)
                & (nzp >= 0)
                & (nzp < nz)
            )
            # A neighbour outside the block exists iff none of the faces it
            # crosses lies on the global domain boundary.
            blocked = np.zeros(self.nrows, dtype=bool)
            if dx == -1:
                blocked |= (nxp < 0) & bxm
            if dx == 1:
                blocked |= (nxp >= nx) & bxp
            if dy == -1:
                blocked |= (nyp < 0) & bym
            if dy == 1:
                blocked |= (nyp >= ny) & byp
            if dz == -1:
                blocked |= (nzp < 0) & bzm
            if dz == 1:
                blocked |= (nzp >= nz) & bzp
            ghost = ~inside & ~blocked

            neighbor_lin = np.where(inside, (nzp * ny + nyp) * nx + nxp, 0)
            values[inside | ghost, slot] = -1.0
            indices[inside, slot] = neighbor_lin[inside]
            n_ghost = int(ghost.sum())
            if n_ghost:
                indices[ghost, slot] = np.arange(
                    ghost_cursor, ghost_cursor + n_ghost, dtype=np.int32
                )
                ghost_cursor += n_ghost
        return values, indices, ghost_cursor - self.nrows

    def _generate_rhs(self) -> np.ndarray:
        """HPCCG's rhs: the row sum including ghost entries (ghost cells
        hold the Dirichlet value 1.0), making the exact solution all-ones."""
        return self.values.sum(axis=1)

    # -- linear algebra ------------------------------------------------------------
    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Padded-ELL sparse matrix-vector product (vectorised gather).

        Ghost cells contribute 0: CG solves for the *correction* relative
        to the Dirichlet data already folded into ``b``, keeping the local
        operator symmetric positive definite.
        """
        extended = np.concatenate([vec, np.zeros(self.n_ghosts)])
        return np.einsum("ij,ij->i", self.values, extended[self.indices])

    def iterate(self, n: int = 1) -> float:
        """Run ``n`` CG iterations; returns the residual norm afterwards."""
        for _ in range(n):
            self.Ap[:] = self.matvec(self.p)
            denom = float(self.p @ self.Ap)
            if denom == 0.0:
                break
            alpha = self._rs_old / denom
            self.x += alpha * self.p
            self.r -= alpha * self.Ap
            rs_new = float(self.r @ self.r)
            if self._rs_old == 0.0:
                break
            self.p[:] = self.r + (rs_new / self._rs_old) * self.p
            self._rs_old = rs_new
            self.iterations_done += 1
        return float(np.sqrt(self._rs_old))

    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.b - self.matvec(self.x)))

    def solver_arrays(self) -> Dict[str, np.ndarray]:
        """All heap arrays a transparent checkpointer would capture."""
        return {
            "values": self.values,
            "indices": self.indices,
            "b": self.b,
            "x": self.x,
            "r": self.r,
            "p": self.p,
            "Ap": self.Ap,
        }


@dataclass(frozen=True)
class _RankPlacement:
    coords: Tuple[int, int, int]
    boundary: BoundaryClass


class HPCCG(SegmentedWorkload):
    """Weak-scaled HPCCG checkpoint workload.

    Parameters
    ----------
    nx, ny, nz:
        Local sub-block size per rank (the paper uses 150^3 ≈ 1.5 GB per
        process; default 16^3 ≈ 1.6 MB keeps the same structure at 1/1000
        scale — the ``scale_factor`` property reports the ratio for the
        cost model).
    max_iterations:
        CG iterations before the checkpoint (paper: checkpoint at
        iteration 100 of 127).
    unique_doubles_per_row:
        Width of the rank-unique geometry segment; the global-dedup
        calibration knob (see module docstring).
    slack_fraction:
        Fraction of the checkpoint occupied by zero pages — allocator
        slack and freed-but-mapped pages that a transparent (system-level)
        checkpointer like AC-FTE captures along with live data.  These
        pages deduplicate both locally and globally; 0.25 calibrates the
        local-dedup ratio into the paper's measured band.
    """

    name = "HPCCG"
    PAPER_BYTES_PER_PROCESS = 1.5e9

    def __init__(
        self,
        nx: int = 16,
        ny: int = 16,
        nz: int = 16,
        max_iterations: int = 100,
        unique_doubles_per_row: int = 3,
        slack_fraction: float = 0.25,
    ) -> None:
        if not 0.0 <= slack_fraction < 1.0:
            raise ValueError("slack_fraction must be in [0, 1)")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.max_iterations = max_iterations
        self.unique_doubles_per_row = unique_doubles_per_row
        self.slack_fraction = slack_fraction
        self._class_cache: Dict[BoundaryClass, Dict[str, np.ndarray]] = {}

    # -- decomposition -------------------------------------------------------------
    def placement(self, rank: int, n_ranks: int) -> _RankPlacement:
        px, py, pz = process_grid_3d(n_ranks)
        iz, rem = divmod(rank, px * py)
        iy, ix = divmod(rem, px)
        boundary = (
            ix == 0,
            ix == px - 1,
            iy == 0,
            iy == py - 1,
            iz == 0,
            iz == pz - 1,
        )
        return _RankPlacement(coords=(ix, iy, iz), boundary=boundary)

    def _class_state(self, boundary: BoundaryClass) -> Dict[str, np.ndarray]:
        state = self._class_cache.get(boundary)
        if state is None:
            solver = HPCCGRankSolver(self.nx, self.ny, self.nz, boundary)
            solver.iterate(self.max_iterations)
            state = solver.solver_arrays()
            self._class_cache[boundary] = state
        return state

    def _geometry(self, coords: Tuple[int, int, int]) -> np.ndarray:
        """Per-row global coordinates: the rank-unique heap content."""
        if self.unique_doubles_per_row <= 0:
            return np.empty(0, dtype=np.float64)
        nx, ny, nz = self.nx, self.ny, self.nz
        ix, iy, iz = coords
        x = ix * nx + np.arange(nx, dtype=np.float64)
        y = iy * ny + np.arange(ny, dtype=np.float64)
        z = iz * nz + np.arange(nz, dtype=np.float64)
        X, Y, Z = np.meshgrid(x, y, z, indexing="ij")
        cols = [X.ravel(order="F"), Y.ravel(order="F"), Z.ravel(order="F")]
        # Width beyond 3 repeats derived per-rank coordinates (e.g. squared
        # distances), staying genuinely rank-unique.
        while len(cols) < self.unique_doubles_per_row:
            i = len(cols)
            cols.append(cols[i % 3] * (i + 1) + cols[(i + 1) % 3])
        return np.column_stack(cols[: self.unique_doubles_per_row]).ravel()

    # -- SegmentedWorkload API --------------------------------------------------
    def rank_segments(self, rank: int, n_ranks: int) -> List[Segment]:
        placement = self.placement(rank, n_ranks)
        state = self._class_state(placement.boundary)
        cls = placement.boundary
        segments: List[Segment] = [
            (("hpccg", self.nx, self.ny, self.nz, cls, name), arr)
            for name, arr in state.items()
        ]
        geom = self._geometry(placement.coords)
        if geom.size:
            segments.append((("hpccg-geom", self.nx, placement.coords), geom))
        if self.slack_fraction > 0.0:
            live = sum(arr.nbytes for arr in state.values()) + geom.nbytes
            slack = int(live * self.slack_fraction / (1.0 - self.slack_fraction))
            segments.append((("hpccg-slack", slack), b"\x00" * slack))
        return segments

    #: solver arrays CG iterations rewrite between two checkpoints; the
    #: operator (values/indices), rhs, geometry and slack pages are
    #: write-once, so their chunks stay fingerprint-cache clean.
    _MUTABLE_ARRAYS = frozenset({"x", "r", "p", "Ap"})

    def dirty_regions(
        self, rank: int, n_ranks: int
    ) -> Optional[List[Optional[List[Tuple[int, int]]]]]:
        placement = self.placement(rank, n_ranks)
        state = self._class_state(placement.boundary)
        regions: List[Optional[List[Tuple[int, int]]]] = [
            [(0, arr.nbytes)] if name in self._MUTABLE_ARRAYS else []
            for name, arr in state.items()
        ]
        if self._geometry(placement.coords).size:
            regions.append([])
        if self.slack_fraction > 0.0:
            regions.append([])
        return regions

    def scale_factor(self, n_ranks: int) -> float:
        """paper-scale bytes / simulated bytes (feeds ``volume_scale``)."""
        return self.PAPER_BYTES_PER_PROCESS / self.per_rank_bytes(n_ranks)
