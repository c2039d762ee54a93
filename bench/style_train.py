"""style-train: library training through a d128x4 LM, one epoch per call.

One timed cycle is three training calls on fixed synthetic data:
`train_mapper` on caption pairs whose image embeddings were cached during
set-up, `train_adapter` for the action style with the LM frozen, and
`train_full_finetune` on both styles with every weight trained. Throughput
counts supervised target positions, computed from the data and the
truncation rules of each trainer.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import ppst.adapters as adapters
import ppst.mapper as mapper
from ppst.encoding import EmbeddingCache, HashedNgramEncoder
from ppst.lm import CausalTransformerLM, LmConfig
from ppst.synthetic import full_vocabulary, make_caption_dataset, make_style_passages
from ppst.tokenizer import WordTokenizer


FULL = {"d_model": 128, "n_layer": 4, "max_seq_len": 128, "pairs": 160, "passages": 48}
TINY = {"d_model": 16, "n_layer": 1, "max_seq_len": 32, "pairs": 8, "passages": 4}
CALLS = ("mapper", "adapter", "finetune")


class StyleTrain:
    name = "style-train"
    cycle = len(CALLS)    # one call per trainer
    setup_repeats = 10

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.size = TINY if tiny else FULL
        self.workdir = workdir

    def setup(self, repeat):
        seed, size = self.seed, self.size
        tokenizer = WordTokenizer(full_vocabulary())
        self.lm = CausalTransformerLM(
            LmConfig(vocab_size=tokenizer.vocab_size, n_layer=size["n_layer"],
                     d_model=size["d_model"], max_seq_len=size["max_seq_len"]),
            tokenizer, seed=seed)
        self.encoder = HashedNgramEncoder()
        self.pairs = make_caption_dataset(self.workdir / f"setup{repeat}", size["pairs"],
                                          seed=seed)
        self.cache = EmbeddingCache(self.encoder.model_id)
        for pair in self.pairs:
            self.cache.image_embedding(self.encoder, pair.image_ref)
        n = size["passages"]
        self.action = make_style_passages("action", n, seed=seed)
        self.mixed = (make_style_passages("romance", n // 2, seed=seed + 1)
                      + make_style_passages("action", n - n // 2, seed=seed + 2))
        self.mapper_cfg = mapper.MapperTrainConfig(max_epochs=1, seed=seed)
        self.text_cfg = adapters.AdapterTrainConfig(max_epochs=1, val_fraction=0.0,
                                                    seed=seed)

        # supervised positions per epoch, from each trainer's truncation rule
        prefix = mapper.MapperConfig(input_dim=self.encoder.embed_dim,
                                     lm_embed_dim=size["d_model"]).prefix_length
        caption_room = min(self.mapper_cfg.max_seq_len, size["max_seq_len"]) - prefix
        text_room = min(self.text_cfg.max_seq_len, size["max_seq_len"]) - 2
        self.targets = {
            "mapper": sum(min(len(tokenizer.encode(p.caption_text, add_eos=True)),
                              caption_room) for p in self.pairs),
            "adapter": sum(min(len(tokenizer.encode(p.text)), text_room) + 1
                           for p in self.action),
            "finetune": sum(min(len(tokenizer.encode(p.text)), text_room) + 1
                            for p in self.mixed),
        }

    def run_op(self, i, tally):
        kind = CALLS[i % len(CALLS)]
        label = f"cycle {i // len(CALLS)}: train {kind}"
        frozen = kind != "finetune"
        log = None
        with tally.item(label):
            checksum = self.lm.checksum()
            started = perf_counter()
            if kind == "mapper":
                _, log = mapper.train_mapper(self.pairs, self.encoder, self.lm,
                                             self.mapper_cfg, embedding_cache=self.cache)
            elif kind == "adapter":
                _, log = adapters.train_adapter(self.action, self.lm, self.text_cfg,
                                                style="action")
            else:
                _, log = adapters.train_full_finetune(self.mixed, self.lm, self.text_cfg)
            elapsed = perf_counter() - started
        if log is None:
            tally.skip(label, ("losses", "frozen LM") if frozen else ("losses",),
                       "training failed")
            return []
        tally.check(f"{label}: losses",
                    bool(log) and all(math.isfinite(e["train_loss"]) for e in log),
                    f"non-finite or missing loss {log}")
        if frozen:
            tally.check(f"{label}: frozen LM", self.lm.checksum() == checksum,
                        "training changed the frozen LM")
        return [{"part": kind, "s": elapsed, "tokens": self.targets[kind]}]

    def metrics(self, samples):
        rates = {kind: [s["tokens"] / s["s"] for s in samples if s["part"] == kind]
                 for kind in CALLS}
        return {
            "mapper_train_tok_per_s": (statistics.median(rates["mapper"]), "tok/s"),
            "adapter_train_tok_per_s": (statistics.median(rates["adapter"]), "tok/s"),
            "finetune_tok_per_s": (statistics.median(rates["finetune"]), "tok/s"),
            "calls": (len(samples), "count"),
        }
