"""Double-well potentials, proliferation functions, and derived well constants.

Two potential families are provided, each split as F = F1 + F2 with F1
convex and F2' Lipschitz:

regular (domain all of R):
    F(r)  = (c1/4) r^2 (r-1)^2
    F1(r) = (c1/4)(r^4 - 2 r^3 + (3/2) r^2),  F2(r) = -(c1/8) r^2
    so F1'' = (3 c1/4)(2r-1)^2 >= 0 and F2' = -(c1/4) r.

logarithmic (domain (0,1)):
    F1(r) = r ln r + (1-r) ln(1-r),  F2(r) = c2 r (1-r)

Logarithmic evaluation clamps r to [eps_clamp, 1-eps_clamp] and continues
with a C^2 quadratic extension outside, so the solver never sees a domain
error. PotentialSpec.clamp_counts counts the cells of each stored level
that lie outside that window, which keeps violations observable.

The proliferation function family is limited to three bounded choices
(zero, constant, logistic) so that the derived constant

    R = (1/m) * sup_r | h(r) - m*r0 |

has a closed form, where r0 is the root of F1'. The admissible range of
the initial phase mean is checked through the two endpoint expressions

    r_minus = r0 - (mean(phi0) - r0)^- - R
    r_plus  = r0 + (mean(phi0) - r0)^+ + R

which must both lie inside the potential domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# The kinds PotentialSpec and ProliferationSpec accept.
POTENTIAL_KINDS = ("regular", "logarithmic")
PROLIFERATION_KINDS = ("zero", "constant", "logistic")


class AdmissibilityError(ValueError):
    """A model or data admissibility condition is violated.

    The message starts with the identifier of the violated condition from
    the admissibility table in the README, e.g. ``(2.11): ...``.
    """


@dataclass
class PotentialSpec:
    """Double-well potential parameters.

    kind 'regular' uses coefficient c1 with domain R; kind 'logarithmic'
    uses coefficient c2 with domain (0,1) and clamp guard eps_clamp.
    """

    kind: str = "regular"
    c1: float = 1.0
    c2: float = 2.0
    eps_clamp: float = 1e-8

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind: {self.kind!r}")
        if self.kind == "regular" and not self.c1 > 0:
            raise AdmissibilityError("(2.6): regular potential coefficient c1 must be positive")
        if self.kind == "logarithmic":
            if not self.c2 > 0:
                raise AdmissibilityError("(2.6): logarithmic coefficient c2 must be positive")
            if not (0.0 < self.eps_clamp < 0.25):
                raise AdmissibilityError("(2.8): eps_clamp must lie in (0, 1/4)")

    @property
    def domain(self) -> tuple[float, float]:
        """Open domain of F: (-inf, inf) for regular, (0, 1) for logarithmic."""
        if self.kind == "regular":
            return (-math.inf, math.inf)
        return (0.0, 1.0)

    # -- evaluation ------------------------------------------------------

    def _clamped(self, r):
        r = np.asarray(r, dtype=float)
        return np.clip(r, self.eps_clamp, 1.0 - self.eps_clamp), r

    def clamp_counts(self, phi) -> np.ndarray:
        """Cells of each level of phi, shape (levels, nx, ny), that lie outside
        [eps_clamp, 1 - eps_clamp]; all zero for the regular potential, which
        never clamps."""
        phi = np.asarray(phi, dtype=float)
        if self.kind == "regular":
            return np.zeros(len(phi), dtype=int)
        out = (phi < self.eps_clamp) | (phi > 1.0 - self.eps_clamp)
        return np.count_nonzero(out, axis=(1, 2))

    def f1_value(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "regular":
            # r^4 - 2 r^3 + (3/2) r^2 by Horner products: numpy's r**3 and
            # r**4 go through pow, several times slower than multiplies.
            return 0.25 * self.c1 * (r * r * ((r - 2.0) * r + 1.5))
        rc, r_raw = self._clamped(r)
        base = rc * np.log(rc) + (1.0 - rc) * np.log(1.0 - rc)
        d = r_raw - rc
        dfirst = np.log(rc / (1.0 - rc))
        dsecond = 1.0 / (rc * (1.0 - rc))
        return base + dfirst * d + 0.5 * dsecond * d**2

    def f2_value(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "regular":
            return -0.125 * self.c1 * r**2
        return self.c2 * r * (1.0 - r)

    def f_value(self, r):
        return self.f1_value(r) + self.f2_value(r)

    def f1_prime(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "regular":
            return 0.25 * self.c1 * (r * ((4.0 * r - 6.0) * r + 3.0))
        rc, r_raw = self._clamped(r)
        return np.log(rc / (1.0 - rc)) + (r_raw - rc) / (rc * (1.0 - rc))

    def f2_prime(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "regular":
            return -0.25 * self.c1 * r
        return self.c2 * (1.0 - 2.0 * r)

    def f_prime(self, r):
        return self.f1_prime(r) + self.f2_prime(r)

    def f1_second(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "regular":
            return 0.75 * self.c1 * (2.0 * r - 1.0) ** 2
        rc, _ = self._clamped(r)
        return 1.0 / (rc * (1.0 - rc))

    def f_second(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "regular":
            return self.f1_second(r) - 0.25 * self.c1
        return self.f1_second(r) - 2.0 * self.c2

    def r0(self) -> float:
        """Root of F1': 0 for the regular split, 1/2 for the logarithmic one."""
        return 0.0 if self.kind == "regular" else 0.5

    def contains(self, lo: float, hi: float) -> bool:
        """Whether the closed range [lo, hi] lies inside the open domain of F."""
        dlo, dhi = self.domain
        return lo > dlo and hi < dhi


@dataclass
class ProliferationSpec:
    """Bounded proliferation function with bounded first and second derivatives.

    kinds: 'zero'; 'constant' (value h0); 'logistic' h(r) = h0 / (1 + exp(-k r)).
    """

    kind: str = "zero"
    h0: float = 0.0
    k: float = 1.0

    def __post_init__(self):
        if self.kind not in PROLIFERATION_KINDS:
            raise ValueError(f"unknown proliferation kind: {self.kind!r}")
        if not (math.isfinite(self.h0) and math.isfinite(self.k)):
            raise AdmissibilityError("(2.4): proliferation parameters must be finite")

    def h_value(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "constant":
            return np.full_like(r, self.h0)
        return self.h0 / (1.0 + np.exp(-self.k * r))

    def h_prime(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind in ("zero", "constant"):
            return np.zeros_like(r)
        s = 1.0 / (1.0 + np.exp(-self.k * r))
        return self.h0 * self.k * s * (1.0 - s)

    def value_range(self) -> tuple[float, float]:
        """Closure of the range of h."""
        if self.kind == "zero":
            return (0.0, 0.0)
        if self.kind == "constant":
            return (self.h0, self.h0)
        return (min(0.0, self.h0), max(0.0, self.h0))


@dataclass(frozen=True)
class WellConstants:
    """Derived constants for the initial-mean admissibility check."""

    r0: float
    R: float
    r_minus_required: float
    r_plus_required: float
    admissible: bool


def derive_constants(
    m: float,
    pot: PotentialSpec,
    prolif: ProliferationSpec,
    phi0_mean: float,
) -> WellConstants:
    """Compute r0, R, and the two endpoint expressions; reject inadmissible configs.

    R = (1/m) sup_r |h(r) - m*r0| in closed form per proliferation family.
    For the bounded (logarithmic) domain, both endpoints must stay strictly
    inside (0, 1); the unbounded regular domain imposes no restriction.
    """
    if not m > 0:
        raise AdmissibilityError("(2.3): m must be positive")
    r0 = pot.r0()
    lo, hi = prolif.value_range()
    R = max(abs(lo - m * r0), abs(hi - m * r0)) / m
    dev = phi0_mean - r0
    r_minus = r0 - max(-dev, 0.0) - R
    r_plus = r0 + max(dev, 0.0) + R
    admissible = pot.contains(min(r_minus, r_plus), max(r_minus, r_plus))
    if pot.kind == "logarithmic" and not admissible:
        raise AdmissibilityError(
            "(2.11): initial-mean endpoints "
            f"[{r_minus:.6g}, {r_plus:.6g}] must lie strictly inside (0, 1); "
            "reduce |h - m*r0| or move mean(phi0) toward r0"
        )
    return WellConstants(r0, R, r_minus, r_plus, admissible)


def default_s_stab(pot: PotentialSpec) -> float:
    """Default linear stabilization for the semi-implicit phase-field step."""
    return 0.5 * pot.c1 if pot.kind == "regular" else 2.0
