"""ppst: image-to-story generation with visual prefixes and pluggable style adapters.

Pipeline: a frozen image/text encoder embeds the input image; a trained
mapping network projects the embedding into a fixed-length prefix in the
language model's input-embedding space; the frozen base LM, optionally
composed with one style's residual adapter set, continues the prefix under
constrained beam search; an evaluation harness scores stories against gold
captions and the source images.
"""

__version__ = "0.1.0"

from .adapters import (AdapterBlock, AdapterConfig, AdapterTrainConfig,
                       StyleAdapterSet, StyledLanguageModel, attach,
                       train_adapter, train_full_finetune)
from .corpus import (CANONICAL_GENRES, GenreCatalog, ImageCaptionPair, StyledPassage,
                     build_styled_passages, chunk_book, filter_by_style, match_genres,
                     subsample)
from .encoding import EmbeddingCache, HashedNgramEncoder
from .errors import (CompatibilityError, ConfigurationError, InputError, PpstError,
                     ScorerUnavailable, TrainingDiverged)
from .generation import DecodeConfig, GenerationRecord, generate
from .lm import CausalTransformerLM, LmConfig
from .mapper import MapperConfig, MapperTrainConfig, PrefixMapper, train_mapper
from .metrics import (MetricReport, chrf_pp, clip_score, evaluate_run, external_score,
                      rouge_l)
from .tokenizer import WordTokenizer
