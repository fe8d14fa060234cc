"""Optics of atomically thin conducting sheets as a stationary two-state system.

Single-sheet scattering/absorption/emission amplitudes, transfer-matrix
multilayer optics, two-state Hamiltonian diagnostics, and polar/axial
gauge-field profile analysis, with a batch CLI front end.
"""

__version__ = "0.1.0"

from .errors import (
    AsymmetricGrid,
    ContinuityViolation,
    DegenerateDecoupling,
    LedgerMismatch,
    SheetOpticsError,
    SingularStack,
)
from .surface import (
    FINE_STRUCTURE,
    GRAPHENE_COND,
    EmissionAmplitudes,
    ScatterCoeffs,
    SheetParams,
    absorbance,
    emission_amplitude,
    solve_boundary_system,
    solve_single_sheet,
)
from .twostate import (
    DecoupledPair,
    TwoStateSystem,
    corrected_reflection,
    decouple,
    decoupling_phase,
    level_energies,
    offdiagonal,
    orthogonalize,
    spin_matrix,
)
from .stack import (
    EmissionLedger,
    LayerStack,
    Sheet,
    Slab,
    StackSolution,
    StackSweep,
    build_emission_ledger,
    decoupling_layer_number,
    interface_matrix,
    load_stack,
    local_fields,
    nlayer_replacement,
    reflectance_with_emission,
    sheet_matrix,
    solve_stack,
    solve_sweep,
    stack_absorbance,
    stack_coeffs,
)
from .fields import (
    FieldProfile,
    GaugeDecomposition,
    axial_at_surface,
    decompose,
    eval_a,
    eval_b,
    make_grid,
    parity_transform,
)
