"""Hierarchical HS-code classification with evidence retrieval and calibration."""

__version__ = "0.1.0"

from .alignment import KeySentenceRetriever, RetrievalConfig, RetrievalResult
from .calibration import TemperatureScaler, fit_temperature, scale
from .case_retrieval import CaseIndex, build_index, similar_cases
from .classifier import SoftmaxClassifier, TrainConfig, TrainReport, cross_entropy, top_k, train
from .corpus import (
    DatasetSplit,
    DecisionCase,
    HsCode,
    LabelSpace,
    ManualEntry,
    Origin,
    build_label_space,
    chronological_split,
    load_cases,
    load_manual,
    parse_hs_code,
)
from .encoder import PooledEncoder
from .evaluation import (
    MetricsReport,
    evaluate_pipeline,
    retrieval_precision_recall,
    top_k_accuracy,
    word_matching_baseline,
)
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
    IdfTable,
    WordVectorTable,
    compute_idf,
    content_keywords,
    cosine,
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
    "cosine",
    "cross_entropy",
    "DatasetSplit",
    "DecisionCase",
    "DEFAULT_STOPWORDS",
    "evaluate_pipeline",
    "fit",
    "fit_temperature",
    "HsCode",
    "IdfTable",
    "KeySentenceRetriever",
    "LabelSpace",
    "load_cases",
    "load_manual",
    "load_pipeline",
    "ManualEntry",
    "MetricsReport",
    "Origin",
    "parse_hs_code",
    "PipelineConfig",
    "PipelineModel",
    "PooledEncoder",
    "RetrievalConfig",
    "RetrievalResult",
    "retrieval_precision_recall",
    "save_pipeline",
    "scale",
    "similar_cases",
    "SoftmaxClassifier",
    "TemperatureScaler",
    "tokenize",
    "top_k",
    "top_k_accuracy",
    "train",
    "TrainConfig",
    "TrainReport",
    "WordVectorTable",
    "word_matching_baseline",
]
