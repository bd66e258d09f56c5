"""Two-site dimer under local-mode dephasing: dynamics, entanglement,
and a divisibility-based memory measure.
"""

from ._version import __version__
from .entanglement import (
    DimerState,
    basis_change,
    log_negativity,
    reduce_to_dimer,
    singlet_overlap,
)
from .dynamics import (
    Trajectory,
    expectation,
    integrate,
    liouvillian_matrix,
    steady_state,
)
from .harness import RunConfig, parse_config, run_experiment, serialize_config
from .model import (
    LindbladModel,
    ModelParams,
    apply_f,
    build_full_model,
    build_global_mode_model,
    build_markovian_dephasing_model,
    build_symmetric_model,
    effective_dephasing_rate,
    steady_state_dd_closed_form,
)
from .nonmarkov import (
    DynamicalMapFamily,
    NMResult,
    choi_matrix,
    map_tomography,
    nm_measure,
    nm_sweep,
)

__all__ = [
    "__version__",
    "DimerState", "basis_change", "log_negativity", "reduce_to_dimer",
    "singlet_overlap",
    "Trajectory", "expectation", "integrate", "liouvillian_matrix",
    "steady_state",
    "RunConfig", "parse_config", "run_experiment", "serialize_config",
    "LindbladModel", "ModelParams", "apply_f",
    "build_full_model", "build_global_mode_model",
    "build_markovian_dephasing_model", "build_symmetric_model",
    "effective_dephasing_rate", "steady_state_dd_closed_form",
    "DynamicalMapFamily", "NMResult", "choi_matrix", "map_tomography",
    "nm_measure", "nm_sweep",
]
