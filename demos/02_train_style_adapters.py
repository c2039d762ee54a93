#!/usr/bin/env python3
"""Residual style adapters on a frozen toy LM, end to end.

Two synthetic styles with disjoint vocabularies; a small transformer is
pretrained on the mix, then one adapter set per style specializes it without
touching a single base weight. Takes ~20 seconds.
"""

import time

from ppst.adapters import (AdapterTrainConfig, StyledLanguageModel, attach,
                           train_adapter, train_full_finetune)
from ppst.lm import CausalTransformerLM, LmConfig
from ppst.nn import param_count
from ppst.synthetic import make_style_passages
from ppst.tokenizer import WordTokenizer

t0 = time.perf_counter()
romance = make_style_passages("romance", 800, seed=1)
action = make_style_passages("action", 800, seed=2)

tokenizer = WordTokenizer.build([p.text for p in romance + action])
lm = CausalTransformerLM(LmConfig(vocab_size=tokenizer.vocab_size, n_layer=2,
                                  n_head=2, d_model=32, d_ff=64, max_seq_len=80),
                         tokenizer, seed=0)

print("pretraining the base LM on the mixed two-style corpus...")
pretrain = AdapterTrainConfig(max_epochs=1, batch_size=16, max_seq_len=80,
                              seed=0, val_fraction=0.0)
base, log = train_full_finetune(romance + action, lm, pretrain)
print(f"  epoch losses: {[round(e['train_loss'], 3) for e in log]}")

checksum = base.checksum()
print("\ntraining one adapter set per style (base LM frozen)...")
adapt = AdapterTrainConfig(max_epochs=2, batch_size=16, max_seq_len=80, seed=0,
                           val_fraction=0.05)
romance_set, _ = train_adapter(romance, base, adapt)
action_set, _ = train_adapter(action, base, adapt)
assert base.checksum() == checksum, "base LM must not change"
print(f"  base LM untouched (checksum {checksum[:12]}... unchanged)")
adapter_params = param_count(romance_set.params())
print(f"  adapter parameters: {adapter_params} "
      f"({100 * adapter_params / param_count(base.params()):.1f}% of the LM)")

plain = StyledLanguageModel(base, None, "plain")
romance_lm = attach(base, romance_set)
action_lm = attach(base, action_set)

holdout = {style: [tokenizer.encode(p.text)
                   for p in make_style_passages(style, 150, seed=40 + i)]
           for i, style in enumerate(("romance", "action"))}
print("\nheld-out perplexity (lower = better fit):")
print(f"  {'model':<14}{'romance text':>14}{'action text':>14}")
for name, model in (("plain", plain), ("romance", romance_lm), ("action", action_lm)):
    row = [model.perplexity(holdout["romance"]), model.perplexity(holdout["action"])]
    print(f"  {name:<14}{row[0]:>14.2f}{row[1]:>14.2f}")

print("\nswapping adapters is plug-and-play: the same base served all three views")
print(f"done in {time.perf_counter() - t0:.1f}s")
