"""Numerical tolerance configuration shared across the toolkit.

All thresholds live in one frozen record so that every report can embed the
exact configuration that produced it.  Only the three the command line sets
(`--tol-group`, `--tol-supp`, `--tol-detect`) are fields; the other twelve
are fixed class constants, each written here once, and `as_dict` gives all
fifteen in declaration order.  Scale-dependent tolerances are exposed as
methods: eigenvalue grouping scales with the spectral radius, algebraic
identity checks with the matrix size, and the certificate safety margin with
sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class Tolerances:
    group_scale: float = 1e-8                    # eigenvalue grouping, times max(1, spectral radius)
    alg_scale: ClassVar[float] = 1e-9            # algebraic identities (unitarity, projectors), times n
    supp: float = 1e-8                           # eigenvalue-support membership threshold
    recog: ClassVar[float] = 1e-6                # integer / quadratic-surd recognition
    feas: ClassVar[float] = 1e-6                 # target-state feasibility residuals
    detect: float = 1e-8                         # mixing detection threshold on the deviation
    safety_scale: ClassVar[float] = 1e-6         # certificate margin for floating eigenvectors, times sqrt(n)
    time_refine: ClassVar[float] = 1e-12         # golden-section time resolution
    time_dedupe: ClassVar[float] = 1e-6          # detections closer than this are merged
    butson_rmax: ClassVar[int] = 24              # largest root-of-unity order tried
    surd_delta_max: ClassVar[int] = 10_000       # largest square-free discriminant recognised
    surd_offset_max: ClassVar[int] = 1_000       # largest |a| in eigenvalues (a + b*sqrt(d))/2
    signed_budget: ClassVar[int] = 12            # kernel dimension cap for signed-vector enumeration
    subset_budget: ClassVar[int] = 1_000_000     # candidate subset pairs in the twin-subgraph search
    rational_den_max: ClassVar[int] = 1_000_000  # denominator bound for rational reconstruction

    def group(self, spectral_radius: float) -> float:
        return self.group_scale * max(1.0, spectral_radius)

    def alg(self, n: int) -> float:
        return self.alg_scale * max(1, n)

    def safety(self, n: int) -> float:
        return self.safety_scale * math.sqrt(max(1, n))

    def as_dict(self) -> dict:
        """Every field and constant, in declaration order."""
        return {name: getattr(self, name) for name in Tolerances.__annotations__}


DEFAULT_TOLERANCES = Tolerances()
