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
    bethe_quantum_numbers,
    bethe_residual,
    h1_closed_form,
    heisenberg_crossings,
    heisenberg_curve,
    sector_energy,
    sector_epsilon,
    solve_bethe,
)
from .ed import (
    Comparison,
    SectorHamiltonian,
    ValidationReport,
    ed_sector_ground_energy,
    sector_hamiltonian,
    validate_bethe,
)
from .fidelity import (
    Curve,
    bhattacharyya_fidelity,
    crossing_fidelity,
    crossing_susceptibility,
    fidelity_curve,
    single_site_state,
)
from .lmg import (
    lmg_chi_max,
    lmg_crossings,
    lmg_curve,
    lmg_energy,
    lmg_fidelity,
    lmg_ground_magnetization,
)

__version__ = "0.1.0"

__all__ = [
    "BetheRoots",
    "Comparison",
    "ConvergenceError",
    "Curve",
    "PowerLawFit",
    "SectorHamiltonian",
    "ValidationReport",
    "bethe_quantum_numbers",
    "bethe_residual",
    "bhattacharyya_fidelity",
    "chi_max_scan",
    "crossing_fidelity",
    "crossing_susceptibility",
    "ed_sector_ground_energy",
    "fidelity_curve",
    "fit_power_law",
    "h1_closed_form",
    "heisenberg_crossings",
    "heisenberg_curve",
    "lmg_chi_max",
    "lmg_crossings",
    "lmg_curve",
    "lmg_energy",
    "lmg_fidelity",
    "lmg_ground_magnetization",
    "sector_energy",
    "sector_epsilon",
    "sector_hamiltonian",
    "single_site_state",
    "solve_bethe",
    "validate_bethe",
]
