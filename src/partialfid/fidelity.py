"""Single-site diagonal states and the crossing fidelity/susceptibility formulas.

Both models treated by this package have ground states with definite total
magnetization, so the one-site reduced density matrix is diagonal in the
sigma^z basis and the Uhlmann fidelity between two of them reduces to the
Bhattacharyya coefficient of the two probability pairs.  Everything here is
shared by the model front ends, down to the curve builder `fidelity_curve`,
to which each model supplies only its crossings; the numeric operations
accept numpy arrays in place of scalars and broadcast elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

# Probability pairs whose sum drifted from one by at most this much are
# renormalized at construction; larger drift is rejected as corrupt input.
NORMALIZATION_DRIFT = 1e-12


@dataclass(frozen=True)
class DiagonalState:
    """Probability pair (p_up, p_down) of a single-site diagonal density matrix."""

    p_up: float
    p_down: float

    def __post_init__(self):
        if np.any(np.asarray(self.p_up) < 0.0) or np.any(np.asarray(self.p_down) < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = self.p_up + self.p_down
        if np.any(np.abs(np.asarray(total) - 1.0) > NORMALIZATION_DRIFT):
            raise ValueError(
                f"p_up + p_down = {total!r} differs from 1 by more than "
                f"{NORMALIZATION_DRIFT}"
            )
        object.__setattr__(self, "p_up", self.p_up / total)
        object.__setattr__(self, "p_down", self.p_down / total)

    def sigma_z(self):
        """On-site average magnetization <sigma^z> = p_up - p_down."""
        return self.p_up - self.p_down


@dataclass(frozen=True)
class CrossingPoint:
    """One ground-state level crossing.

    The magnetization sector `sector_above` is the ground state just above
    `field`, `sector_below` just below; adjacent sectors differ by one unit.
    """

    index: int
    field: float
    sector_above: int
    sector_below: int

    def __post_init__(self):
        if self.sector_above != self.sector_below + 1:
            raise ValueError(
                f"sectors at a crossing must be adjacent, got "
                f"{self.sector_above} above and {self.sector_below} below"
            )
        if not self.field > 0.0:
            raise ValueError(f"crossing field must be positive, got {self.field}")


@dataclass(frozen=True)
class CurvePoint:
    """Fidelity at one crossing, with the susceptibility where a spacing exists.

    `delta_h` is the distance to the next crossing; the last crossing of a
    chain has no successor, so both `delta_h` and `chi` are absent there.
    """

    crossing: CrossingPoint
    fidelity: float
    delta_h: float | None = None
    chi: float | None = None

    def __post_init__(self):
        if not 0.0 < self.fidelity <= 1.0:
            raise ValueError(f"fidelity must lie in (0, 1], got {self.fidelity}")
        if (self.delta_h is None) != (self.chi is None):
            raise ValueError("delta_h and chi must be present or absent together")
        if self.delta_h is not None:
            expected = crossing_susceptibility(self.fidelity, self.delta_h)
            if abs(self.chi - expected) > 1e-12 * max(1.0, abs(expected)):
                raise ValueError(
                    f"chi = {self.chi} inconsistent with fidelity and delta_h "
                    f"(recomputes to {expected})"
                )


def _check_size(n, floor=2):
    """Reject a system size that is odd or below `floor` spins."""
    if n < floor or n % 2 != 0:
        raise ValueError(f"number of spins must be even and >= {floor}, got {n}")


def single_site_state(n, m):
    """Single-site state of the magnetization-m sector of n spins.

    The on-site average <sigma^z> is 2m/n, so the probabilities are
    ((1 + 2m/n)/2, (1 - 2m/n)/2).  `m` may be an integer array.
    """
    _check_size(n)
    if np.any(np.abs(np.asarray(m)) > n // 2):
        raise ValueError(f"|m| must not exceed n/2 = {n // 2}, got m = {m}")
    sz = 2.0 * m / n
    return DiagonalState((1.0 + sz) / 2.0, (1.0 - sz) / 2.0)


def bhattacharyya_fidelity(p, q):
    """Overlap sqrt(p_up q_up) + sqrt(p_down q_down) of two diagonal states.

    Symmetric in its arguments, bounded by 1 (Cauchy-Schwarz), and equal to 1
    exactly when the states coincide.
    """
    f = np.sqrt(p.p_up * q.p_up) + np.sqrt(p.p_down * q.p_down)
    return np.minimum(f, 1.0)  # guard rounding at p = q against the bound


def crossing_fidelity(n, m_above, m_below):
    """Fidelity between the single-site states on the two sides of a crossing."""
    return bhattacharyya_fidelity(
        single_site_state(n, m_above), single_site_state(n, m_below)
    )


def crossing_susceptibility(fidelity, delta_h):
    """Susceptibility -2 ln(F) / delta_h^2 of a fidelity drop over a spacing."""
    if np.any(np.asarray(fidelity) <= 0.0) or np.any(np.asarray(fidelity) > 1.0):
        raise ValueError(f"fidelity must lie in (0, 1], got {fidelity}")
    if np.any(np.asarray(delta_h) <= 0.0):
        raise ValueError(f"delta_h must be positive, got {delta_h}")
    # + 0.0 turns the -0.0 arising at F = 1 into 0.0
    return -2.0 * np.log(fidelity) / (delta_h * delta_h) + 0.0


def fidelity_curve(n, crossings, spacings):
    """Fidelity/susceptibility curve of n spins, one point per crossing.

    The crossing fidelity depends only on n and the two sectors, so every
    model shares it; a model supplies only its crossings and the spacings
    delta_h (a sequence of floats, stored in the points as given) from each
    crossing to the next.  Crossings beyond len(spacings) have no successor
    and carry no susceptibility.
    """
    above = np.array([c.sector_above for c in crossings])
    fidelity = crossing_fidelity(n, above, above - 1)
    if len(spacings) > fidelity.size:
        raise ValueError(
            f"{len(spacings)} spacings for {fidelity.size} crossings")
    chi = crossing_susceptibility(fidelity[:len(spacings)],
                                  np.asarray(spacings, dtype=float))
    return [CurvePoint(*point) for point in zip_longest(
        crossings, fidelity.tolist(), spacings, chi.tolist())]


def global_sector_overlap(m, m_prime):
    """Overlap of sector ground states at two fields: 1 if same sector, else 0.

    Within a sector the ground state does not depend on the field, and states
    of different magnetization are orthogonal, so the full-state fidelity is a
    Kronecker delta in the sector label.  This is what makes the full-state
    fidelity blind to level crossings and motivates the partial-state one.
    """
    return 1.0 if m == m_prime else 0.0
