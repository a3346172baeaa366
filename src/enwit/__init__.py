"""enwit: energy-based entanglement witnesses with certified robustness bounds.

Estimate the generalized robustness of entanglement of a quantum state from
a single measured quantity, its mean energy, and verify the estimates at
desk scale against an exact two-qubit oracle.
"""

from .errors import NumericalError
from .hamiltonians import (
    PauliString,
    XXXParams,
    build_pauli,
    build_xxx,
    parse_pauli_terms,
)
from .measurement import BoundInterval, EnergyEstimate, bound_with_confidence, measure_energy
from .operators import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    SystemShape,
    eig,
    expectation,
)
from .robustness import (
    EntanglementCheck,
    RobustnessCertificate,
    is_entangled_2q,
    rg_exact_2q,
)
from .sep_energy import (
    Partition,
    SepEnergyReport,
    esep_closed_form_xxx,
    esep_reference,
    esep_search,
    esep_seesaw,
)
from .thermal import ThermalPoint, energy_curve, gibbs, ground_state
from .witness import (
    BoundReport,
    EsepPolicy,
    WitnessSpec,
    bound_sweep,
    make_witness,
    resolve_esep,
    robustness_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInterval",
    "BoundReport",
    "DensityMatrix",
    "EnergyEstimate",
    "EntanglementCheck",
    "EsepPolicy",
    "HermitianOperator",
    "NumericalError",
    "Partition",
    "PauliString",
    "RobustnessCertificate",
    "SepEnergyReport",
    "SpectralDecomposition",
    "SystemShape",
    "ThermalPoint",
    "WitnessSpec",
    "XXXParams",
    "bound_sweep",
    "bound_with_confidence",
    "build_pauli",
    "build_xxx",
    "eig",
    "energy_curve",
    "esep_closed_form_xxx",
    "esep_reference",
    "esep_search",
    "esep_seesaw",
    "expectation",
    "gibbs",
    "ground_state",
    "is_entangled_2q",
    "make_witness",
    "measure_energy",
    "parse_pauli_terms",
    "resolve_esep",
    "rg_exact_2q",
    "robustness_lower_bound",
]
