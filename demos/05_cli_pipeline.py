#!/usr/bin/env python3
"""The whole pipeline through the `ppst` command line, in a temp directory.

Equivalent shell session:

    ppst build-corpus  --config config.json
    ppst train-mapper  --config config.json
    ppst train-adapter --config config.json --style action
    ppst generate      --config config.json --style action --images images/
    ppst evaluate      --config config.json --records ... --gold ...

Every stage lands in its own runs/<stage>-<hash>/ directory with a manifest;
rerunning an unchanged stage is skipped.
"""

import json
import tempfile
from pathlib import Path

from ppst.cli import main
from ppst.corpus import save_caption_pairs
from ppst.synthetic import make_book_files, make_caption_dataset

with tempfile.TemporaryDirectory(prefix="ppst-demo-") as tmp:
    workdir = Path(tmp)
    books = make_book_files(workdir / "books", seed=0)
    pairs = make_caption_dataset(workdir / "images", 12, seed=1)
    save_caption_pairs(pairs, workdir / "captions.jsonl")

    config = {
        "seed": 7,
        "artifacts_dir": str(workdir / "runs"),
        "corpus": {"books_dir": str(books), "catalog": str(books / "catalog.tsv"),
                   "captions": str(workdir / "captions.jsonl"), "caption_fraction": 1.0},
        "encoder": {"embed_dim": 32, "n_buckets": 256, "max_text_tokens": 24},
        "lm": {"n_layer": 1, "n_head": 2, "d_model": 16, "d_ff": 32, "max_seq_len": 64,
               "max_vocab": 256, "pretrain_epochs": 1, "batch_size": 16},
        "mapper": {"hidden_dim": 32, "prefix_length": 4, "max_epochs": 2,
                   "batch_size": 8, "max_seq_len": 24},
        "adapters": {"styles": ["romance", "action"], "max_epochs": 1,
                     "batch_size": 16, "max_seq_len": 64, "val_fraction": 0.0},
        "decode": {"beam_size": 3, "top_k": 5, "min_length": 4, "max_length": 16,
                   "length_decay_start": 4},
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    print(f"workspace: {workdir}\n")

    for argv in (["build-corpus"],
                 ["train-mapper"],
                 ["train-adapter", "--style", "action"],
                 ["generate", "--style", "action", "--images", str(workdir / "images")],
                 ):
        print(f"$ ppst {' '.join(argv)}")
        code = main(["--config", str(config_path)] + argv)
        assert code == 0, f"stage failed with exit code {code}"
        print()

    records = next((workdir / "runs").glob("generate-action-*/records/records.jsonl"))
    print(f"$ ppst evaluate --records {records.name} --gold captions.jsonl")
    code = main(["--config", str(config_path), "evaluate", "--records", str(records),
                 "--gold", str(workdir / "captions.jsonl")])
    assert code == 0

    print("\nrerunning generate with nothing changed:")
    main(["--config", str(config_path), "generate", "--style", "action",
          "--images", str(workdir / "images")])
