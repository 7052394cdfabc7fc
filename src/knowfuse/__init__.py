"""knowfuse: knowledge-infused multimodal classification toolkit.

Submodules:
    kg          triple loading, vocabularies, filtered corruption
    kge         TransE / RotatE / DistMult training and link prediction
    stores      embedding stores, records, synthetic data, file readers/writers
    retrieval   exact cosine top-k concept retrieval
    fusion      cross-attention fusion classifier, trained from scratch
    congruence  text/image congruence diagnostics
    metrics     precision / recall / F1 / AUC
    cli         the `knowfuse` command line driver
"""

from .congruence import CongruenceReport, ModalityPairSet
from .fusion import FusionConfig, FusionNet
from .kg import KnowledgeGraph, Triple
from .kge import KgeModel, KgeTrainConfig
from .metrics import EvalResult
from .retrieval import ConceptIndex
from .stores import CampaignRecord, EmbeddingStore, SynthConfig

__version__ = "0.1.0"

__all__ = [
    "CampaignRecord",
    "ConceptIndex",
    "CongruenceReport",
    "EmbeddingStore",
    "EvalResult",
    "FusionConfig",
    "FusionNet",
    "KgeModel",
    "KgeTrainConfig",
    "KnowledgeGraph",
    "ModalityPairSet",
    "SynthConfig",
    "Triple",
    "__version__",
]
