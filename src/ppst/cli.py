"""Command-line driver: corpus building, training, generation, evaluation.

    ppst build-corpus            --config cfg.json
    ppst train-mapper            --config cfg.json
    ppst train-adapter --style S --config cfg.json      (S may be "non-styled")
    ppst generate --style S --images DIR --config cfg.json
    ppst evaluate --records F --gold F --config cfg.json

The config is a single JSON file with per-stage sections (see
DEFAULT_CONFIG). Every training and decoding hyperparameter is a default
there and can be overridden. Each command is a `Stage` with a run directory
`<artifacts_dir>/<stage>-<confighash>/`; the hash also covers the files of an
explicit `lm.checkpoint`. A stage works in a staging dir under a pid lock (a
lock whose pid is gone is removed), then moves its outputs into place and
writes manifest.json last, so a crashed run leaves the previous one intact.
A complete manifest over unchanged inputs is skipped unless --force is given;
a downstream stage reads only complete upstream runs. `generate` checks that
the mapper was trained on the base LM and encoder in use.

Exit codes: 0 success; 2 input, config or compatibility error, including a
corrupt file, a config key not in DEFAULT_CONFIG, a live lock or a
mismatched checkpoint; 3 numeric failure.
The external-scorer endpoint is taken from $PPST_SCORER_ENDPOINT.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import corpus as corpus_mod
from .adapters import (AdapterConfig, AdapterTrainConfig, StyleAdapterSet,
                       StyledLanguageModel, adapter_data_fingerprint, attach,
                       train_adapter, train_full_finetune, train_on_texts)
from .artifacts import (Stage, fingerprint_file, fingerprint_json, read_json,
                        read_jsonl, read_manifest, read_text, write_jsonl)
from .encoding import HashedNgramEncoder
from .errors import CompatibilityError, InputError, PpstError, TrainingDiverged
from .generation import DecodeConfig, generate
from .lm import CausalTransformerLM, LmConfig
from .mapper import (MapperConfig, MapperTrainConfig, PrefixMapper,
                     mapper_data_fingerprint, train_mapper)
from .metrics import evaluate_run
from .tokenizer import WordTokenizer

SCORER_ENDPOINT_ENV = "PPST_SCORER_ENDPOINT"

DEFAULT_CONFIG = {
    "seed": 0,
    "artifacts_dir": "runs",
    "corpus": {
        "books_dir": None,          # directory of <title>.txt books
        "catalog": None,            # TSV title -> semicolon genre list
        "captions": None,           # caption-pair JSONL (image_ref/caption/split)
        "caption_fraction": 0.1,
    },
    "encoder": {
        "embed_dim": 256,
        "n_buckets": 2048,
        "max_text_tokens": 77,
        "model_id": None,
    },
    "lm": {
        "checkpoint": None,         # use an existing LM checkpoint instead of building
        "n_layer": 2,
        "n_head": 2,
        "d_model": 32,
        "d_ff": 0,
        "max_seq_len": 128,
        "max_vocab": 512,
        "pretrain_epochs": 1,
        "learning_rate": 1e-3,
        "batch_size": 8,
    },
    "mapper": {
        "hidden_dim": 512,
        "prefix_length": 10,
        "activation": "tanh",
        "max_epochs": 10,
        "learning_rate": 1e-3,
        "batch_size": 8,
        "max_seq_len": 512,
    },
    "adapters": {
        "styles": ["romance", "action"],
        "bottleneck_dim": 0,        # 0 -> lm d_model / 8
        "activation": "relu",
        "max_epochs": 10,
        "learning_rate": 1e-3,
        "batch_size": 8,
        "max_seq_len": 512,
        "val_fraction": 0.1,
        "patience": 2,
    },
    "decode": {
        "beam_size": 5,
        "temperature": 0.8,
        "top_k": 10,
        "repetition_penalty": 0.7,
        "no_repeat_ngram": 3,
        "length_decay_factor": 1.7,
        "length_decay_start": 20,
        "min_length": 750,
        "max_length": None,
    },
    "eval": {
        "clip_weight": 2.5,
        "scorer_timeout": 10.0,
    },
}


def _merge(base, override, section=None):
    """A copy of `base` with the values of `override`, which may use only its
    keys and must give each section (a dict in `base`) as an object."""
    if not isinstance(override, dict):
        what = f"section {section}" if section else "the config file"
        raise InputError(f"{what} is not a JSON object", ref=section)
    out = copy.deepcopy(base)
    for key, value in override.items():
        name = f"{section}.{key}" if section else key
        if key not in base:
            raise InputError(f"unknown config key {name}", ref=name)
        out[key] = _merge(base[key], value, name) if isinstance(base[key], dict) else value
    return out


def load_config(path, seed=None):
    cfg = _merge(DEFAULT_CONFIG, read_json(path))
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _encoder(cfg):
    e = cfg["encoder"]
    return HashedNgramEncoder(embed_dim=e["embed_dim"], model_id=e["model_id"],
                              max_text_tokens=e["max_text_tokens"],
                              n_buckets=e["n_buckets"])


def _require(path, what):
    if path is None:
        raise InputError(f"config does not name {what}", ref=what)
    p = Path(path)
    if not p.exists():
        raise InputError(f"{what} not found: {p}", ref=str(p))
    return p


# config sections whose values name each stage's run directory
STAGE_SECTIONS = {
    "build-corpus": ["corpus"],
    "base-lm": ["corpus", "lm"],
    "train-mapper": ["corpus", "encoder", "lm", "mapper"],
    "train-adapter": ["corpus", "lm", "adapters"],
    "generate": ["corpus", "encoder", "lm", "mapper", "adapters", "decode"],
    "evaluate": ["encoder", "eval"],
}


def _stage(cfg, kind, style=None, extra=None):
    """The Stage of `kind` (for one style) under this config.

    A stage that reads the `lm` section also hashes the files of an explicit
    `lm.checkpoint`, so replacing the checkpoint at the same path re-runs it.
    """
    identity = {name: cfg[name] for name in STAGE_SECTIONS[kind]}
    identity["seed"] = cfg["seed"]
    if extra:
        identity["extra"] = extra
    if "lm" in identity and cfg["lm"]["checkpoint"]:
        checkpoint = _require(cfg["lm"]["checkpoint"], "lm.checkpoint")
        identity["lm_checkpoint_files"] = {
            f.name: fingerprint_file(f) for f in sorted(checkpoint.iterdir()) if f.is_file()}
    name = kind if style is None else f"{kind}-{style.replace(' ', '_')}"
    command = f"ppst {kind}" if style is None else f"ppst {kind} --style {style}"
    return Stage(cfg["artifacts_dir"], name, identity, command)


@contextlib.contextmanager
def _frozen(lm):
    """Fail the enclosed training if it changed the frozen base LM."""
    before = lm.checksum()
    yield
    if lm.checksum() != before:
        raise CompatibilityError("frozen-LM contract violated: training changed the "
                                 f"base LM {lm.lm_id}")


# ---------------------------------------------------------------------------
# corpus stage


def cmd_build_corpus(cfg, force=False):
    section = cfg["corpus"]
    books_dir = _require(section["books_dir"], "corpus.books_dir")
    catalog_path = _require(section["catalog"], "corpus.catalog")
    caption_path = (_require(section["captions"], "corpus.captions")
                    if section["captions"] else None)

    book_files = sorted(books_dir.glob("*.txt"))
    inputs = [fingerprint_file(f) for f in book_files] + [fingerprint_file(catalog_path)]
    if caption_path:
        inputs.append(fingerprint_file(caption_path))
    input_fp = fingerprint_json(inputs)

    stage = _stage(cfg, "build-corpus")
    if stage.skip(input_fp, force):
        return 0
    catalog = corpus_mod.GenreCatalog.from_table(catalog_path)
    books = [(f.stem, read_text(f)) for f in book_files]
    pairs = []
    if caption_path:
        pairs = corpus_mod.load_caption_pairs(caption_path)
        pairs = corpus_mod.subsample(pairs, section["caption_fraction"], cfg["seed"])

    with stage.run(input_fp) as (out, manifest):
        passages = corpus_mod.build_styled_passages(books, catalog)
        corpus_mod.save_passages(passages, out / "passages.jsonl")
        counts = corpus_mod.genre_counts(passages)
        (out / "genre_counts.json").write_text(json.dumps(counts, indent=2,
                                                          sort_keys=True))
        print(f"build-corpus: {len(passages)} passages from {len(books)} books")
        for genre in corpus_mod.RECOGNIZED_GENRES:
            print(f"  {genre:>16}: {counts[genre]}")
        if caption_path:
            corpus_mod.save_caption_pairs(pairs, out / "captions.jsonl")
            print(f"build-corpus: kept {len(pairs)} caption pairs "
                  f"(fraction {section['caption_fraction']})")
        manifest.update(n_passages=len(passages), n_caption_pairs=len(pairs))
    return 0


def _read_corpus(cfg):
    """(passages, caption pairs) of the complete build-corpus run."""
    run_dir = _stage(cfg, "build-corpus").require()
    captions = run_dir / "captions.jsonl"
    return (corpus_mod.load_passages(run_dir / "passages.jsonl"),
            corpus_mod.load_caption_pairs(captions) if captions.exists() else [])


# ---------------------------------------------------------------------------
# base LM materialization


def ensure_base_lm(cfg, force=False):
    """Resolve the base LM: an explicit checkpoint, or a deterministic toy LM
    built from the corpus (vocabulary from passages + captions, then
    `pretrain_epochs` of causal-LM training)."""
    section = cfg["lm"]
    if section["checkpoint"]:
        return CausalTransformerLM.load(_require(section["checkpoint"], "lm.checkpoint"))

    stage = _stage(cfg, "base-lm")
    passages, captions = _read_corpus(cfg)
    texts = [p.text for p in passages] + [c.caption_text for c in captions]
    if not texts:
        raise InputError("no corpus text to build a base LM from", ref="corpus")
    input_fp = fingerprint_json(texts)
    if not stage.skip(input_fp, force):
        with stage.run(input_fp) as (out, manifest):
            tokenizer = WordTokenizer.build(texts, max_vocab=section["max_vocab"])
            lm_config = LmConfig(vocab_size=tokenizer.vocab_size,
                                 n_layer=section["n_layer"], n_head=section["n_head"],
                                 d_model=section["d_model"], d_ff=section["d_ff"],
                                 max_seq_len=section["max_seq_len"])
            lm = CausalTransformerLM(lm_config, tokenizer, seed=cfg["seed"])
            if section["pretrain_epochs"] > 0:
                train_cfg = AdapterTrainConfig(
                    max_epochs=section["pretrain_epochs"],
                    learning_rate=section["learning_rate"],
                    batch_size=section["batch_size"],
                    max_seq_len=section["max_seq_len"],
                    seed=cfg["seed"], val_fraction=0.0)
                if passages:
                    lm, _ = train_full_finetune(passages, lm, train_cfg)
                if captions:
                    train_on_texts([c.caption_text for c in captions], lm, train_cfg,
                                   "base-lm captions")
            lm.lm_id = f"base-lm-{stage.config_hash[:8]}"
            lm.save(out / "checkpoints" / "lm")
            manifest.update(lm_id=lm.lm_id, lm_fingerprint=lm.fingerprint())
        print(f"base-lm: built {lm.lm_id} (vocab {tokenizer.vocab_size})")
    return CausalTransformerLM.load(stage.dir / "checkpoints" / "lm")


# ---------------------------------------------------------------------------
# training stages


def cmd_train_mapper(cfg, force=False):
    _, captions = _read_corpus(cfg)
    if not captions:
        raise InputError("caption dataset is empty", ref="captions.jsonl")
    encoder = _encoder(cfg)
    lm = ensure_base_lm(cfg, force=False)

    stage = _stage(cfg, "train-mapper")
    input_fp = mapper_data_fingerprint(captions)
    if stage.skip(input_fp, force):
        return 0

    section = cfg["mapper"]
    mapper_config = MapperConfig(input_dim=encoder.embed_dim,
                                 lm_embed_dim=lm.config.d_model,
                                 hidden_dim=section["hidden_dim"],
                                 prefix_length=section["prefix_length"],
                                 activation=section["activation"])
    train_cfg = MapperTrainConfig(max_epochs=section["max_epochs"],
                                  learning_rate=section["learning_rate"],
                                  batch_size=section["batch_size"],
                                  max_seq_len=section["max_seq_len"],
                                  seed=cfg["seed"])
    with stage.run(input_fp) as (out, manifest):
        with _frozen(lm):
            mapper, loss_log = train_mapper(captions, encoder, lm, train_cfg, mapper_config)
        mapper.save(out / "checkpoints" / "mapper", extra_manifest={
            "train_config": vars(train_cfg),
            "encoder_model_id": encoder.model_id,
            "lm_id": lm.lm_id,
            "lm_fingerprint": lm.fingerprint(),
            "data_fingerprint": input_fp,
            "final_loss": loss_log[-1]["train_loss"],
        })
        write_jsonl(out / "loss_log.jsonl", loss_log)
        manifest.update(encoder_model_id=encoder.model_id, lm_id=lm.lm_id)
    print(f"train-mapper: final loss {loss_log[-1]['train_loss']:.4f} "
          f"after {len(loss_log)} epochs")
    return 0


def cmd_train_adapter(cfg, style, force=False):
    section = cfg["adapters"]
    known = list(section["styles"]) + ["non-styled"]
    if style not in known:
        raise InputError(f"unknown style {style!r}; configured: {known}", ref=style)
    passages, _ = _read_corpus(cfg)
    if style != "non-styled":
        passages = corpus_mod.filter_by_style(passages, style)
    if not passages:
        raise InputError(f"no passages for style {style!r}", ref=style)
    lm = ensure_base_lm(cfg, force=False)

    stage = _stage(cfg, "train-adapter", style, extra=style)
    input_fp = adapter_data_fingerprint(passages)
    if stage.skip(input_fp, force):
        return 0

    train_cfg = AdapterTrainConfig(max_epochs=section["max_epochs"],
                                   learning_rate=section["learning_rate"],
                                   batch_size=section["batch_size"],
                                   max_seq_len=section["max_seq_len"],
                                   seed=cfg["seed"],
                                   val_fraction=section["val_fraction"],
                                   patience=section["patience"])
    with stage.run(input_fp) as (out, manifest):
        if style == "non-styled":
            tuned, loss_log = train_full_finetune(passages, lm, train_cfg)
            tuned.save(out / "checkpoints" / "lm_finetuned")
        else:
            adapter_config = None
            if section["bottleneck_dim"]:
                adapter_config = AdapterConfig(bottleneck_dim=section["bottleneck_dim"],
                                               activation=section["activation"])
            with _frozen(lm):
                adapter_set, loss_log = train_adapter(passages, lm, train_cfg, style=style,
                                                      adapter_config=adapter_config)
            adapter_set.save(out / "checkpoints" / "adapter", extra_manifest={
                "train_config": vars(train_cfg),
                "data_fingerprint": input_fp,
                "final_loss": loss_log[-1]["train_loss"],
            })
        write_jsonl(out / "loss_log.jsonl", loss_log)
        manifest.update(style=style, n_passages=len(passages))
    final = loss_log[-1]["train_loss"] if loss_log else float("nan")
    print(f"train-adapter[{style}]: {len(passages)} passages, final loss {final:.4f}")
    return 0


# ---------------------------------------------------------------------------
# generation and evaluation


def _styled_model(cfg, style, lm):
    if style == "plain":
        return StyledLanguageModel(lm, None, "plain")
    run_dir = _stage(cfg, "train-adapter", style, extra=style).require()
    if style == "non-styled":
        return StyledLanguageModel(
            CausalTransformerLM.load(run_dir / "checkpoints" / "lm_finetuned"), None,
            "full_finetune")
    return attach(lm, StyleAdapterSet.load(run_dir / "checkpoints" / "adapter", lm))


def _list_images(images):
    path = Path(images)
    if path.is_dir():
        files = sorted(p for p in path.iterdir()
                       if p.suffix.lower() in (".pgm", ".ppm", ".pbm", ".png",
                                               ".jpg", ".jpeg"))
    else:
        files = [path]
    if not files:
        raise InputError(f"no images found under {images}", ref=str(images))
    return files


def cmd_generate(cfg, images, style, force=False):
    image_files = _list_images(images)
    image_fp = fingerprint_json([fingerprint_file(f) for f in image_files])
    stage = _stage(cfg, "generate", style, extra={"style": style, "images": image_fp})
    if stage.skip(image_fp, force):
        return 0

    mapper_ckpt = _stage(cfg, "train-mapper").require() / "checkpoints" / "mapper"
    mapper = PrefixMapper.load(mapper_ckpt)
    encoder = _encoder(cfg)
    lm = ensure_base_lm(cfg, force=False)
    # the mapper must come from this base LM and encoder, also for non-styled,
    # whose fine-tuned LM reuses the base LM's mapper
    trained = read_manifest(mapper_ckpt)
    if (trained.get("lm_fingerprint"), trained.get("encoder_model_id")) != \
            (lm.fingerprint(), encoder.model_id):
        raise CompatibilityError(f"mapper {mapper_ckpt} was trained against another "
                                 "base LM or encoder; run `ppst --force train-mapper`")
    model = _styled_model(cfg, style, lm)
    decode_cfg = DecodeConfig(seed=cfg["seed"], **cfg["decode"])

    n_ok = 0
    with stage.run(image_fp) as (out, manifest):
        (out / "records").mkdir()
        with open(out / "records" / "records.jsonl", "w", encoding="utf-8") as rec_fh, \
                open(out / "records" / "timings.jsonl", "w", encoding="utf-8") as time_fh:
            for image in image_files:
                try:
                    embedding = encoder.encode_image(image)
                    prefix = mapper.map_prefix(embedding)
                    record = generate(prefix, model, decode_cfg, image_ref=str(image))
                except PpstError as exc:
                    rec_fh.write(json.dumps({"image_ref": str(image),
                                             "error": str(exc)},
                                            sort_keys=True) + "\n")
                    print(f"generate[{style}]: skipped {image}: {exc}", file=sys.stderr)
                    continue
                rec_fh.write(record.to_json_line() + "\n")
                time_fh.write(json.dumps({"image_ref": str(image),
                                          "wall_time_s": record.wall_time_s}) + "\n")
                n_ok += 1
        manifest.update(n_records=n_ok, n_images=len(image_files), model=model.manifest())
    print(f"generate[{style}]: {n_ok}/{len(image_files)} records -> "
          f"{stage.dir / 'records' / 'records.jsonl'}")
    return 0


def cmd_evaluate(cfg, records_path, gold_path, force=False):
    records_path = _require(records_path, "records file")
    gold_path = _require(gold_path, "gold captions file")
    # lines of images that generate skipped carry no story
    rows = read_jsonl(records_path, lambda rec: SimpleNamespace(
        image_ref=rec["image_ref"], story_text=rec["story"], style=rec.get("style", ""))
        if "story" in rec else None)
    if not rows:
        raise InputError(f"no evaluable records in {records_path}", ref=str(records_path))

    references = {}
    for pair in corpus_mod.load_caption_pairs(gold_path):
        references.setdefault(pair.image_ref, []).append(pair.caption_text)

    records_fp = fingerprint_file(records_path)
    gold_fp = fingerprint_file(gold_path)
    stage = _stage(cfg, "evaluate", extra={"records": records_fp, "gold": gold_fp})
    input_fp = fingerprint_json([records_fp, gold_fp])
    if stage.skip(input_fp, force):
        return 0

    report = evaluate_run(rows, references, encoder=_encoder(cfg),
                          scorer_endpoint=os.environ.get(SCORER_ENDPOINT_ENV),
                          clip_weight=cfg["eval"]["clip_weight"],
                          scorer_timeout=cfg["eval"]["scorer_timeout"])
    if not report.per_item:
        raise InputError("no record had gold references; nothing to evaluate",
                         ref=str(records_path))

    with stage.run(input_fp) as (out, manifest):
        (out / "reports").mkdir()
        (out / "reports" / "report.jsonl").write_text(report.to_jsonl(), encoding="utf-8")
        (out / "reports" / "report.txt").write_text(report.to_table(), encoding="utf-8")
        manifest.update(n_items=len(report.per_item), unavailable=sorted(report.unavailable))
    print(report.to_table())
    if report.unavailable:
        print(f"evaluate: unavailable metrics: {', '.join(sorted(report.unavailable))}")
    print(f"evaluate: report -> {stage.dir / 'reports' / 'report.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(prog="ppst",
                                     description="image-to-story pipeline driver")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--force", action="store_true",
                        help="re-run even if an up-to-date run exists")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build-corpus")
    sub.add_parser("train-mapper")
    adapter = sub.add_parser("train-adapter")
    adapter.add_argument("--style", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--style", required=True)
    gen.add_argument("--images", required=True)
    ev = sub.add_parser("evaluate")
    ev.add_argument("--records", required=True)
    ev.add_argument("--gold", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config, seed=args.seed)
        if args.command == "build-corpus":
            code = cmd_build_corpus(cfg, force=args.force)
        elif args.command == "train-mapper":
            code = cmd_train_mapper(cfg, force=args.force)
        elif args.command == "train-adapter":
            code = cmd_train_adapter(cfg, args.style, force=args.force)
        elif args.command == "generate":
            code = cmd_generate(cfg, args.images, args.style, force=args.force)
        else:
            code = cmd_evaluate(cfg, args.records, args.gold, force=args.force)
    except TrainingDiverged as exc:
        print(f"ppst {args.command}: numeric failure: {exc}", file=sys.stderr)
        return 3
    except PpstError as exc:
        print(f"ppst {args.command}: {exc}", file=sys.stderr)
        return 2
    print(f"ppst {args.command}: done in {time.perf_counter() - started:.1f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
