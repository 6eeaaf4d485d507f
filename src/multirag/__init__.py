"""Multi-embedding RAG engine with confidence-based answer selection."""

from .confidence import (
    EPSILON,
    METRICS,
    ConfidenceScore,
    avg_log_p,
    dp,
    entropy,
    gini,
    orient,
    score_record,
    select_most_confident,
    self_certainty,
)
from .corpus import Chunk, ChunkIndex, Corpus
from .embedding import DeterministicProvider, EmbeddingVector, RemoteProvider
from .evaluation import (
    AccuracyReport,
    QAItem,
    aggregate,
    cdf_report,
    extract_answer,
    is_correct,
    load_gold,
)
from .generation import (
    DecodeParams,
    GenerationRecord,
    MockBackend,
    OpenAIChatBackend,
    StepBlock,
    TokenStep,
    derive_seed,
    generate,
)
from .pipeline import (
    PipelineConfig,
    QuestionResult,
    run_confident,
    run_mixture,
    run_vanilla,
)
from .retrieval import (
    PromptTemplate,
    RetrievalCandidate,
    SimilarityRow,
    assemble_prompt,
    fuse,
    score_all,
    standardize,
    top_k,
    top_k_by_kind,
)

__version__ = "0.1.0"
