"""certrom: certified adaptive surrogate hierarchy for parametrized parabolic
input-output maps (full order / reduced basis / learned predictors), with
rigorous a posteriori output-error certification of every answer."""

from .adaptive import (
    AdaptiveModel,
    EvalRecord,
    StagnationConfig,
    StagnationDetector,
    apply_tolerance_drop,
)
from .app import McReport, export_telemetry, make_adaptive_model, monte_carlo
from .core import (
    ConfigError,
    NumericalError,
    OutputSignal,
    ParameterBox,
    TimeGrid,
    Trajectory,
    l2_time_norm,
    linf_time_norm,
    time_average,
)
from .fem import (
    AffineFunctional,
    AffineOperator,
    BoundarySegment,
    DirichletLifting,
    EnergyFactor,
    FieldRaster,
    FunctionalComponent,
    OperatorComponent,
    StructuredGrid,
    apply_dirichlet_shift,
    assemble_advection,
    assemble_diffusion,
    assemble_mass,
    assemble_output_average,
    assemble_reaction,
    build_grid,
    energy_product,
    load_raster_csv,
    synthetic_layered_raster,
)
from .fom import FomProblem, FullOrderModel
from .hapod import HapodConfig, IncrementalHapod, RbGenerator, gram_schmidt
from .kernels import (
    KernelConfig,
    VkogaGenerator,
    VkogaRom,
    vkoga_fit,
)
from .mlp import (
    DnnGenerator,
    DnnRom,
    MlpParams,
    TrainConfig,
    adam_step,
    mlp_forward,
    mlp_train,
)
from .optimize import NelderMeadConfig, OptimizeReport, nelder_mead, optimize_misfit
from .problems import (
    BuildingConfig,
    HeatSquareConfig,
    ReactiveFlowConfig,
    build_building,
    build_heat_square,
    build_reactive_flow,
    from_config,
)
from .rb import (
    RbRom,
    SpannedTrajectory,
    TemporalBasis,
    assemble_rb_rom,
)

__version__ = "0.1.0"
