"""Alarm-flood root-cause diagnosis with a discrete hidden Markov model.

Faults are hidden states, alarm activations are observation symbols; a
single HMM trained on labeled alarm sequences decodes the most probable
fault behind a new flood.  The package also ships alarm-limit extraction
from measurement traces, a synthetic fault-propagation simulator, a
sequence-similarity baseline classifier, and a CLI chaining the pipeline.
"""

from .alarms import (
    AlarmLimits,
    AlarmSequence,
    AlarmSymbolCodebook,
    MeasurementTrace,
    extract_sequence,
    fit_limits,
    read_sequences_jsonl,
    read_trace_csv,
    write_sequences_jsonl,
    write_trace_csv,
)
from .baseline import (
    BaselineResult,
    Dendrogram,
    fit_baseline,
)
from .diagnoser import (
    AccuracyCurve,
    Diagnosis,
    DiagnoserModel,
    LabeledSequence,
    as_labeled,
    diagnose,
    diagnose_all,
    evaluate_prefix_accuracy,
    load_diagnoser,
    save_diagnoser,
    train_diagnoser,
)
from .errors import (
    AlarmHmmError,
    DomainError,
    InferenceError,
    ModelFormatError,
    SchemaError,
    UnknownSymbolError,
)
from .hmm import (
    FitConfig,
    Hmm,
    StatePath,
    fit,
    k_best_paths,
    total_log_likelihood,
    viterbi,
)
from .plantsim import (
    FaultPath,
    PropagationGraph,
    ScenarioSpec,
    Stage,
    default_graph,
    default_scenario_counts,
    generate_scenario_set,
    load_graph,
    save_graph,
    simulate_alarm_sequence,
    simulate_fault_trace,
    simulate_normal_trace,
)

__version__ = "0.1.0"
