"""Federated learning simulator with mixed-precision quantization."""

from .quant import (
    DensityProfile,
    QuantizedLayer,
    ScalePolicy,
    dequantize,
    plane_density,
    prune_msbs,
    quantize,
    quantize_activations,
    shift_add_matmul,
)
from .ste import (
    UpdateContext,
    apply_update,
    fixed_point_delta,
    group_lasso,
    power_of_two,
    sgd_step,
    ste_backward,
)
from .nn import (
    DenseModel,
    ModelConfig,
    ModelSpec,
    QuantizedModel,
    TrainConfig,
    evaluate,
    local_objective,
    local_update,
)
from .server import (
    BudgetLedger,
    ClientUpdate,
    GlobalModel,
    aggregate,
    binary_representation,
    convert_to_fp,
    pruning_growing,
    round_bitwidths,
)
from .simulation import (
    ExperimentConfig,
    RoundMetrics,
    dirichlet_partition,
    run_experiment,
    run_round,
    sample_clients,
)

__version__ = "0.1.0"
