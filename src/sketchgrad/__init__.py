"""sketchgrad: program induction from input-output examples.

Write a program sketch with holes for comparison tokens, arithmetic
operators and numeric constants; attach a search distribution to every hole
(categorical over tokens, Gaussian over reals); then estimate gradients of
expected fitness from sampled candidate programs and ascend them with a
standard optimizer until the most probable program satisfies the examples.
"""

from .dists import (
    CategoricalTheta,
    GaussianTheta,
    ThetaError,
    categorical_gradient,
    gaussian_gradient,
    load_thetas,
    sample_categorical_many,
    save_thetas,
    softmax,
    standardize_fitness,
)
from .engine import (
    ConfigError,
    DivergenceError,
    EnumerationError,
    Population,
    TrainConfig,
    TrainRecord,
    TrainResult,
    TrainState,
    argmax_program,
    enumerate_discrete,
    estimate_gradients,
    hole_streams,
    init_state,
    loss_spikes,
    sample_population,
    train,
    train_step,
)
from .interp import (
    NONFINITE_PENALTY,
    SpecError,
    SpecSet,
    eval_population_losses,
    eval_program,
    eval_spec_loss,
)
from .io import load_config, load_spec, save_spec, write_loss_csv
from .sketch import (
    Assignment,
    Chain,
    CondHole,
    Guard,
    Hole,
    Lit,
    OpHole,
    RealHole,
    Sketch,
    SketchError,
    SketchSyntaxError,
    Var,
    instantiate,
    parse_sketch,
    print_program,
)

__version__ = "0.1.0"
