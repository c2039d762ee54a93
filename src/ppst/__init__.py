"""ppst: image-to-story generation with visual prefixes and pluggable style adapters.

Pipeline: a frozen image/text encoder embeds the input image; a trained
mapping network projects the embedding into a fixed-length prefix in the
language model's input-embedding space; the frozen base LM, optionally
composed with one style's residual adapter set, continues the prefix under
constrained beam search; an evaluation harness scores stories against gold
captions and the source images.

Each name lives in its module and is imported from there, e.g.
`from ppst.adapters import attach`; the package itself binds only `__version__`.
"""

__version__ = "0.1.0"
