"""respeval: quality scoring for re-speaking / live subtitling.

Seven automatic metrics (BLEU, NIST, TER, METEOR, METEOR-PL, RIBES, EBLEU),
the human-annotation NER accuracy model, and ordinary least squares with
backward elimination to predict NER from the automatic scores.
"""

from .align_metrics import (
    MeteorAlignment,
    MeteorScore,
    RibesScore,
    TerScore,
    kendall_nkt,
    meteor,
    meteor_align,
    meteor_pl,
    ribes,
    spearman_nsr,
    ter,
    word_rank_alignment,
)
from .ngram_metrics import NgramConfig, NgramScore, bleu, brevity_penalty, ebleu, nist
from .ner import (
    ErrorSeverity,
    NerRecord,
    ner_accuracy,
    parse_ner_annotations,
    reduction_rate,
)
from .resources import LanguageResources, load_resources
from .stats import (
    DataTable,
    EliminationTrace,
    RegressionModel,
    adjusted_r2,
    backward_eliminate,
    ols_fit,
    predict,
    t_sf,
)
from .textcore import RespevalInputError, TokenizerConfig, ngrams, tokenize

__version__ = "0.1.0"

__all__ = [
    "DataTable",
    "EliminationTrace",
    "ErrorSeverity",
    "LanguageResources",
    "MeteorAlignment",
    "MeteorScore",
    "NerRecord",
    "NgramConfig",
    "NgramScore",
    "RegressionModel",
    "RespevalInputError",
    "RibesScore",
    "TerScore",
    "TokenizerConfig",
    "adjusted_r2",
    "backward_eliminate",
    "bleu",
    "brevity_penalty",
    "ebleu",
    "kendall_nkt",
    "load_resources",
    "meteor",
    "meteor_align",
    "meteor_pl",
    "ner_accuracy",
    "ngrams",
    "nist",
    "ols_fit",
    "parse_ner_annotations",
    "predict",
    "reduction_rate",
    "ribes",
    "spearman_nsr",
    "t_sf",
    "ter",
    "tokenize",
    "word_rank_alignment",
]
