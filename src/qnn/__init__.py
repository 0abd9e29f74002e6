"""Quadratic-neuron networks: exact constructions, analytic gradients, experiments."""

from .builders import (
    MultiPolySpec,
    RadialPartition,
    build_deep_radial,
    build_factorization_trainable,
    build_multipoly_net,
    build_parabola_module,
    build_poly_net,
    build_shallow_radial,
    delta_for_target_error,
    multipoly_net_size,
    plateau_interval,
    quadratic_coefficients,
    radial_profile,
)
from .network import (
    LayerSpec,
    NetworkSpec,
    PackedNetwork,
    backward_batch,
    forward_batch,
    from_json,
    one_hidden_conventional,
    one_hidden_quadratic,
    parameter_count,
    set_trainable_values,
    single_quadratic_net,
    to_json,
    trainable_count,
    trainable_values,
)
from .neurons import (
    ConventionalNeuron,
    PassthroughNeuron,
    QuadraticNeuron,
    conv_preactivation,
    quad_preactivation,
    relu,
)
from .oracles import (
    GridSpec,
    bernstein_direct,
    expand_factored,
    finite_diff_grad,
    grid_l1,
    grid_sup,
    horner,
    reference_backward_batch,
    reference_forward_batch,
)
from .polynomials import (
    FactoredForm,
    FactorizationError,
    Polynomial,
    bernstein_coeffs,
    factor_polynomial,
)
from .trainer import (
    Dataset,
    TrainConfig,
    TrainingError,
    accuracy,
    make_poly_dataset,
    make_rings_dataset,
    train,
    train_restarts,
)

__version__ = "0.1.0"
