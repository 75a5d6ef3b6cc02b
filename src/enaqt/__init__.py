"""Environment-assisted quantum transport.

Simulation engine for excitonic transport under pure-dephasing
(Haken-Strobl) dynamics with trapping and recombination: density-matrix
propagation, exact infinite-horizon efficiency/transfer-time functionals
via the Liouvillian inverse, the seven-site FMO problem, and disordered
binary-tree ensembles.
"""

__version__ = "0.1.0"

from .dynamics import (MomentSolver, Trajectory, build_liouvillian,
                       integrated_state, propagate)
from .errors import (ConfigurationError, DataIntegrityError, EnaqtError,
                     NonConvergentIntegralError, NumericalConsistencyError,
                     SweepFailureError, UndefinedTransferTimeError)
from .fmo import FmoModel, dephasing_sweep, load_fmo_model, trap_dephasing_surface
from .model import (InitialState, TransportSystem, effective_hamiltonian,
                    initial_density_matrix, load_system, save_system)
from .observables import (TransportResult, efficiency, loss_probability,
                          transfer_time, transport_result)
from .spectral import OhmicBath, dephasing_rate
from .sweep import SweepPlan, derive_seed, run_sweep
from .tree import (DisorderEnsembleReport, TreeSpec, disorder_ensemble,
                   generate_tree, leaf_initial_state, optimal_dephasing)
from .twolevel import (TwoLevelParams, coherent_population_2,
                       larmor_frequency, to_transport_system)
from .units import BOLTZMANN_CM1_PER_K, CM1_TO_PS_ANGULAR

__all__ = [
    "BOLTZMANN_CM1_PER_K", "CM1_TO_PS_ANGULAR", "ConfigurationError",
    "DataIntegrityError", "DisorderEnsembleReport", "EnaqtError", "FmoModel",
    "InitialState", "MomentSolver", "NonConvergentIntegralError",
    "NumericalConsistencyError", "OhmicBath", "SweepFailureError", "SweepPlan",
    "Trajectory", "TransportResult", "TransportSystem", "TreeSpec",
    "TwoLevelParams", "UndefinedTransferTimeError", "build_liouvillian",
    "coherent_population_2", "dephasing_rate", "dephasing_sweep", "derive_seed",
    "disorder_ensemble", "effective_hamiltonian", "efficiency",
    "generate_tree", "initial_density_matrix", "integrated_state",
    "larmor_frequency", "leaf_initial_state", "load_fmo_model", "load_system",
    "loss_probability", "optimal_dephasing",
    "propagate", "run_sweep", "save_system", "to_transport_system",
    "transfer_time", "transport_result", "trap_dephasing_surface",
]
