"""Phase-space distributions of pure states and the successive
position-then-momentum measurement that realizes the Husimi function."""

from .core import (
    Basis,
    EnvelopeError,
    Grid,
    Observable,
    ResolutionError,
    WaveFunction,
    coherent_state,
    expectation,
    fock_state,
    inner,
    make_grid,
    normalize,
    superpose,
    to_momentum,
    to_position,
)
from .measurement import (
    ConditionalResult,
    GaussianMeasurement,
    OutcomeIncompatibleError,
    SampleResult,
    apply_m,
    conditional_q,
    m_density,
    povm_completeness,
    sample_joint,
    shot_noise_bound,
    sqrt_form_check,
    successive_density,
    tv_distance,
)
from .phasespace import (
    CharacteristicGrid,
    DistributionKind,
    MarginalAxis,
    PhaseSpaceGrid,
    characteristic,
    husimi,
    husimi_via_characteristic,
    marginal,
    observable_wigner,
    q_moment,
    trace_product,
    wigner,
)
from .pointer import (
    CompositeWaveFunction,
    CouplingSpec,
    ProductWaveFunction,
    apply_interaction,
    device_grid_for,
    make_composite,
    pointer_vs_direct,
    readout_joint,
    weak_rescale,
)

__version__ = "0.1.0"
