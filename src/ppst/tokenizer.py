"""Whitespace word-level tokenizer with pad/bos/eos/unk specials."""

from __future__ import annotations

import json
from pathlib import Path

from .artifacts import read_json
from .errors import CompatibilityError

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
SPECIALS = (PAD, BOS, EOS, UNK)


class WordTokenizer:
    def __init__(self, words):
        self.itos = list(SPECIALS) + [w for w in words if w not in SPECIALS]
        self.stoi = {w: i for i, w in enumerate(self.itos)}
        self.pad_id = self.stoi[PAD]
        self.bos_id = self.stoi[BOS]
        self.eos_id = self.stoi[EOS]
        self.unk_id = self.stoi[UNK]

    @classmethod
    def build(cls, texts, max_vocab=None):
        """Vocabulary from whitespace tokens, most frequent first, ties by word."""
        counts = {}
        for text in texts:
            for w in text.split():
                counts[w] = counts.get(w, 0) + 1
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        if max_vocab is not None:
            ranked = ranked[: max(0, max_vocab - len(SPECIALS))]
        return cls(ranked)

    @property
    def vocab_size(self):
        return len(self.itos)

    def encode(self, text, add_eos=False):
        ids = [self.stoi.get(w, self.unk_id) for w in text.split()]
        if add_eos:
            ids.append(self.eos_id)
        return ids

    def decode(self, ids):
        special = {self.pad_id, self.bos_id, self.eos_id}
        return " ".join(self.itos[i] for i in ids if i not in special)

    def save(self, path):
        Path(path).write_text(json.dumps(self.itos, ensure_ascii=False))

    @classmethod
    def load(cls, path):
        """Inverse of save: the stored list must be one `__init__` rebuilds as is."""
        itos = read_json(path)
        listed = isinstance(itos, list) and all(isinstance(w, str) for w in itos)
        tok = cls(itos if listed else [])
        if tok.itos != itos or len(tok.stoi) != len(itos):
            raise CompatibilityError(f"{path} is not a vocabulary: a list of distinct "
                                     f"words that starts with {', '.join(SPECIALS)}")
        return tok
