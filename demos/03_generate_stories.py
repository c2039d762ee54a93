#!/usr/bin/env python3
"""Image -> visual prefix -> styled story, with constrained beam search.

Trains the full toy stack (base LM, action adapters, prefix mapper over
rendered caption images), then generates the same images through the plain
and the styled model so the style shift is visible. Takes ~30 seconds.
"""

import tempfile
import time
from pathlib import Path

from ppst.adapters import (AdapterTrainConfig, StyledLanguageModel, attach,
                           train_adapter, train_full_finetune, train_on_texts)
from ppst.encoding import HashedNgramEncoder
from ppst.generation import DecodeConfig, generate
from ppst.lm import CausalTransformerLM, LmConfig
from ppst.mapper import MapperConfig, MapperTrainConfig, train_mapper
from ppst.synthetic import make_caption_dataset, make_style_passages
from ppst.tokenizer import WordTokenizer

t0 = time.perf_counter()
with tempfile.TemporaryDirectory(prefix="ppst-demo-") as tmp:
    workdir = Path(tmp)

    romance = make_style_passages("romance", 800, seed=1)
    action = make_style_passages("action", 800, seed=2)
    pairs = make_caption_dataset(workdir / "images", 120, seed=3)

    tokenizer = WordTokenizer.build([p.text for p in romance + action]
                                    + [c.caption_text for c in pairs])
    lm = CausalTransformerLM(LmConfig(vocab_size=tokenizer.vocab_size, n_layer=2,
                                      n_head=2, d_model=32, d_ff=64, max_seq_len=96),
                             tokenizer, seed=0)

    print("pretraining base LM (styles + captions)...")
    pretrain = AdapterTrainConfig(max_epochs=1, batch_size=16, max_seq_len=96,
                                  seed=0, val_fraction=0.0)
    base, _ = train_full_finetune(romance + action, lm, pretrain)
    train_on_texts([c.caption_text for c in pairs], base, pretrain, "captions")

    print("training one adapter set per style...")
    adapt = AdapterTrainConfig(max_epochs=2, batch_size=16, max_seq_len=96, seed=0,
                               val_fraction=0.05)
    action_set, _ = train_adapter(action, base, adapt)
    romance_set, _ = train_adapter(romance, base, adapt)

    print("training the prefix mapper on (image, caption) pairs, LM frozen...")
    encoder = HashedNgramEncoder(embed_dim=64, n_buckets=512)
    mapper, _ = train_mapper(
        pairs, encoder, base,
        MapperTrainConfig(max_epochs=3, batch_size=8, max_seq_len=48, seed=0),
        MapperConfig(input_dim=64, lm_embed_dim=32, hidden_dim=64, prefix_length=6))

    views = {"plain": StyledLanguageModel(base, None, "plain"),
             "romance": attach(base, romance_set),
             "action": attach(base, action_set)}
    decode = DecodeConfig(beam_size=5, temperature=0.8, top_k=10,
                          repetition_penalty=0.7, no_repeat_ngram=3,
                          length_decay_start=20, length_decay_factor=1.7,
                          min_length=18, max_length=32, seed=0)

    print(f"\nsetup done in {time.perf_counter() - t0:.1f}s; generating the same "
          "images through each view...\n")
    for pair in pairs[:3]:
        prefix = mapper.map_prefix(encoder.encode_image(pair.image_ref))
        print(f"image caption: {pair.caption_text}")
        for name, model in views.items():
            record = generate(prefix, model, decode, image_ref=pair.image_ref)
            print(f"  {name:<8}: {record.story_text}")
        print()
    print("adapters swap per call against one shared frozen base; no trigram ever "
          "repeats by construction")
