"""Partial-state fidelity across ground-state level crossings.

Single-site fidelity and its susceptibility for two models with exactly
solvable magnetization sectors: the isotropic Lipkin-Meshkov-Glick model
(closed forms throughout) and the antiferromagnetic spin-1/2 Heisenberg ring
(Bethe-Ansatz sector solver, cross-checked by sparse exact diagonalization
of rings up to N = 20).
"""

from .analysis import (
    PowerLawFit,
    chi_max_scan,
    fit_power_law,
)
from .bethe import (
    BetheRoots,
    ConvergenceError,
    heisenberg_crossings,
    heisenberg_curve,
    sector_epsilon,
    solve_bethe,
)
from .ed import (
    Comparison,
    ValidationReport,
    ed_sector_ground_energy,
    sector_hamiltonian,
    validate_bethe,
)
from .fidelity import (
    Curve,
    crossing_fidelity,
    crossing_susceptibility,
)
from .lmg import (
    lmg_chi_max,
    lmg_crossings,
    lmg_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BetheRoots",
    "Comparison",
    "ConvergenceError",
    "Curve",
    "PowerLawFit",
    "ValidationReport",
    "chi_max_scan",
    "crossing_fidelity",
    "crossing_susceptibility",
    "ed_sector_ground_energy",
    "fit_power_law",
    "heisenberg_crossings",
    "heisenberg_curve",
    "lmg_chi_max",
    "lmg_crossings",
    "lmg_curve",
    "sector_epsilon",
    "sector_hamiltonian",
    "solve_bethe",
    "validate_bethe",
]
