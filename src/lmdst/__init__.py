"""Multi-task dialogue state generation.

Copy-augmented state generator over concatenated dialogue context, with
optional speaker tags and a bi-directional language-model auxiliary task,
plus the evaluation and error-analysis tooling around it.
"""

from .corpus import (BeliefState, Dialogue, DialogueTurn, Ontology, SynthConfig,
                     filter_domains, generate_synthetic, load_multiwoz)
from .context import Vocabulary, build_context, build_vocabulary, length_bucket, tokenize
from .evaluation import (TurnPrediction, classify_error, joint_accuracy,
                         length_report, slot_accuracy, taxonomy_report)
from .model import DstModel
from .training import TrainConfig, TrainReport, fit, sweep

__version__ = "0.1.0"

__all__ = [
    "BeliefState", "Dialogue", "DialogueTurn", "DstModel", "Ontology",
    "SynthConfig", "TrainConfig", "TrainReport", "TurnPrediction",
    "Vocabulary", "build_context", "build_vocabulary", "classify_error",
    "filter_domains", "fit", "generate_synthetic", "joint_accuracy",
    "length_bucket", "length_report", "load_multiwoz", "slot_accuracy",
    "sweep", "taxonomy_report", "tokenize",
]
