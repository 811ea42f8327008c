"""Pulsed-drive simulator for holonomic control of NV-center qubit registers."""

__version__ = "0.1.0"

from nvholo.core import (
    ConfigError,
    DensityMatrix,
    NumericalError,
    OperatorMatrix,
    StateVector,
    eig_hermitian,
    inner_product,
    state_density_fidelity,
)
from nvholo.evolve import (
    EvolutionConfig,
    NoiseModel,
    Trajectory,
    convergence_check,
    evolve_lindblad,
    evolve_schrodinger,
    recommended_dt,
)
from nvholo.hamiltonians import (
    HERMITIZED,
    LITERAL,
    LevelSpec,
    PulseChannel,
    PulseSet,
    PulsedHamiltonian,
    build_interaction_8,
    build_rotating_frame_4,
    build_rotating_frame_8,
    silent_channel,
)
from nvholo.gates import (
    DarkStateParams,
    GateParams,
    dark_states,
    holonomic_unitary,
    orthogonal_dark_state,
    phase_from_discrepancy,
    rotation_axis,
    single_qubit_unitary,
)
from nvholo.scenarios import (
    DarkSpectrum,
    ScenarioConfig,
    SweepResult,
    SweepSpec,
    compare_resonant_fidelity,
    run_composite_gate_scenario,
    run_dark_state_spectrum,
    run_pi3_rotation,
    run_single_qubit_detuning_sweep,
    run_single_qubit_theta_sweep,
    run_three_qubit_detuning_sweep,
    run_three_qubit_time_evolution,
    run_two_qubit_pi2,
)
from nvholo.config import (
    CsvTable,
    RunManifest,
    parse_config,
    parse_manifest,
    render_config,
    write_csv,
)


def __getattr__(name):
    # nvholo.cli is imported on first use, so that `python -m nvholo.cli`
    # does not find it already in sys.modules (runpy warns about that)
    if name == "run_cli":
        from nvholo.cli import run_cli

        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConfigError",
    "CsvTable",
    "DarkSpectrum",
    "DarkStateParams",
    "DensityMatrix",
    "EvolutionConfig",
    "GateParams",
    "HERMITIZED",
    "LITERAL",
    "LevelSpec",
    "NoiseModel",
    "NumericalError",
    "OperatorMatrix",
    "PulseChannel",
    "PulseSet",
    "PulsedHamiltonian",
    "RunManifest",
    "ScenarioConfig",
    "StateVector",
    "SweepResult",
    "SweepSpec",
    "Trajectory",
    "build_interaction_8",
    "build_rotating_frame_4",
    "build_rotating_frame_8",
    "compare_resonant_fidelity",
    "convergence_check",
    "dark_states",
    "eig_hermitian",
    "evolve_lindblad",
    "evolve_schrodinger",
    "holonomic_unitary",
    "inner_product",
    "orthogonal_dark_state",
    "parse_config",
    "parse_manifest",
    "phase_from_discrepancy",
    "recommended_dt",
    "render_config",
    "rotation_axis",
    "run_cli",
    "run_composite_gate_scenario",
    "run_dark_state_spectrum",
    "run_pi3_rotation",
    "run_single_qubit_detuning_sweep",
    "run_single_qubit_theta_sweep",
    "run_three_qubit_detuning_sweep",
    "run_three_qubit_time_evolution",
    "run_two_qubit_pi2",
    "silent_channel",
    "single_qubit_unitary",
    "state_density_fidelity",
    "write_csv",
    "__version__",
]
