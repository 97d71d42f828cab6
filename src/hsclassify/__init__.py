"""Hierarchical HS-code classification with evidence retrieval and calibration."""

__version__ = "0.1.0"

from .alignment import KeySentenceRetriever, RetrievalConfig, RetrievalResult
from .calibration import TemperatureScaler, fit_temperature
from .case_retrieval import CaseIndex, build_index, similar_cases
from .classifier import SoftmaxClassifier, TrainConfig, TrainReport, train
from .corpus import (
    DatasetSplit,
    DecisionCase,
    HsCode,
    LabelSpace,
    ManualEntry,
    build_label_space,
    chronological_split,
    load_cases,
    load_manual,
    parse_hs_code,
)
from .encoder import PooledEncoder
from .evaluation import MetricsReport, evaluate_pipeline, top_k_accuracy
from .pipeline import (
    CandidateReport,
    PipelineConfig,
    PipelineModel,
    fit,
    load_pipeline,
    save_pipeline,
)
from .textproc import (
    DEFAULT_STOPWORDS,
    WordVectorTable,
    compute_idf,
    content_keywords,
    tokenize,
)

__all__ = [
    "__version__",
    "build_index",
    "build_label_space",
    "CandidateReport",
    "CaseIndex",
    "chronological_split",
    "compute_idf",
    "content_keywords",
    "DatasetSplit",
    "DecisionCase",
    "DEFAULT_STOPWORDS",
    "evaluate_pipeline",
    "fit",
    "fit_temperature",
    "HsCode",
    "KeySentenceRetriever",
    "LabelSpace",
    "load_cases",
    "load_manual",
    "load_pipeline",
    "ManualEntry",
    "MetricsReport",
    "parse_hs_code",
    "PipelineConfig",
    "PipelineModel",
    "PooledEncoder",
    "RetrievalConfig",
    "RetrievalResult",
    "save_pipeline",
    "similar_cases",
    "SoftmaxClassifier",
    "TemperatureScaler",
    "tokenize",
    "top_k_accuracy",
    "train",
    "TrainConfig",
    "TrainReport",
    "WordVectorTable",
]
