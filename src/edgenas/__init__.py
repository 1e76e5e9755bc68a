"""Hierarchical hardware-aware CNN configuration search for edge accelerators."""

from .architecture import (
    ArchitectureDescriptor,
    LayerDescriptor,
    build_architecture,
)
from .devices import (
    DeviceMeasurer,
    DeviceProfile,
    ExternalDevice,
    FitObservation,
    JitterSpec,
    LatencyModel,
    MeasurementProtocol,
    PowerModel,
    SimulatedDevice,
    dynamic_power_from_traces,
    fit_profile,
    latency_stats,
    load_profile,
    load_profiles,
    simulate_dynamic_power,
    simulate_latency,
)
from .evaluators import (
    AccuracyResult,
    ExternalEvaluator,
    Precision,
    SurrogateEvaluator,
)
from .pipeline import (
    FitnessKind,
    PipelineResult,
    RankedSet,
    TrialLog,
    TrialRecord,
    fitness,
    run_pipeline,
    stage1,
    stage2,
    stage3,
)
from .reporting import (
    DeviceSummaryRow,
    RatioClaim,
    comparison_table,
    load_paper_tables,
    pareto_front,
    ratio_sheet,
    ratio_sheet_from_tables,
    summary_table,
)
from .space import (
    Configuration,
    ParamSpec,
    SearchSpace,
    build_space,
    cardinality,
    config_from_index,
    index_of,
    sample_uniform,
    table1_space,
    validate,
)
from .tpe import (
    ObservationHistory,
    OptimizerSettings,
    run_optimization,
    suggest,
)

__version__ = "0.1.0"
