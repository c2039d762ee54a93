"""Command-line driver: corpus building, training, generation, evaluation.

    ppst build-corpus            --config cfg.json
    ppst train-mapper            --config cfg.json
    ppst train-adapter --style S --config cfg.json      (S may be "non-styled")
    ppst generate --style S --images DIR --config cfg.json
    ppst evaluate --records F --gold F --config cfg.json

The config is a single JSON file with per-stage sections (see DEFAULT_CONFIG).
The keys and defaults of `lm`, `mapper`, `adapters`, `decode`, `encoder` and
`eval` are the parameters of the classes and functions each stage builds from
them (SECTION_CLASSES). A value must have its default's type: an int passes for
a float and stays an int, a bool is no number, and a None default takes null or
the field's type (a string for paths and ids). The load then builds those
classes, with stand-ins for what a stage supplies later, so a value in any
section that one refuses blocks every command: "config key <section>.<key> =
<value>: <the class's rule>". `adapters.bottleneck_dim` 0 means `d_model // 8`;
it must be below a built LM's `lm.d_model`. Each command is a `Stage`
with a run directory `<artifacts_dir>/<stage>-<confighash>/`; the hash also
covers the files of an explicit `lm.checkpoint`. A stage holds a `flock` on its
`.lock` (the kernel drops it when the holder dies), works in a staging dir, then
moves its outputs into place and writes manifest.json last: a crash during the
work leaves the previous run intact, a failed move leaves no complete run. A
complete manifest over the same inputs is "up to date" and skipped unless
--force is given; the inputs are the files and runs a stage reads, the base LM,
mapper and model included, and for evaluate the images it scores.
A downstream stage reads only complete upstream runs. `generate` checks that
the mapper, an adapter and a non-styled fine-tune come from the base LM in use.

Exit codes: 0 success; 2 input, config or compatibility error, including a
corrupt file, a failed read or write, a config key not in DEFAULT_CONFIG, of
the wrong type or out of range, a style that is not a plain name, a held lock or
a mismatched checkpoint; 3 numeric failure.
The external-scorer endpoint is taken from $PPST_SCORER_ENDPOINT.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import inspect
import json
import os
import sys
import time
import typing
from pathlib import Path
from types import SimpleNamespace

from . import corpus as corpus_mod
from .adapters import (AdapterConfig, AdapterTrainConfig, StyleAdapterSet,
                       StyledLanguageModel, attach, train_adapter, train_full_finetune,
                       train_on_texts)
from .artifacts import (Stage, fingerprint_file, fingerprint_json, read_json,
                        read_jsonl, read_manifest, read_text, require_utf8,
                        tensors_fingerprint, write_jsonl)
from .encoding import HashedNgramEncoder
from .errors import (CompatibilityError, ConfigurationError, InputError, PpstError,
                     TrainingDiverged)
from .generation import DecodeConfig, generate
from .lm import CausalTransformerLM, LmConfig
from .mapper import MapperConfig, MapperTrainConfig, PrefixMapper, train_mapper
from .metrics import evaluate_run
from .tokenizer import SPECIALS, WordTokenizer

SCORER_ENDPOINT_ENV = "PPST_SCORER_ENDPOINT"


def base_lm_pretraining(max_seq_len, max_vocab=512, pretrain_epochs=1, learning_rate=1e-3,
                        batch_size=8, seed=0):
    """The training of a built base LM of context `max_seq_len`, whose vocabulary holds
    `max_vocab` words, one besides the specials: `pretrain_epochs` (0: none), none held out."""
    if max_vocab < len(SPECIALS) + 1:
        raise ConfigurationError("base_lm_pretraining.max_vocab must be >= "
                                 f"{len(SPECIALS) + 1}")
    return AdapterTrainConfig(pretrain_epochs, learning_rate, batch_size, max_seq_len, seed,
                              val_fraction=0.0)


# the classes or functions each section feeds; its keys are their parameters
# that have a default, less the ones a stage supplies, with those defaults
SECTION_CLASSES = {"lm": (LmConfig, base_lm_pretraining),
                   "mapper": (MapperConfig, MapperTrainConfig),
                   "adapters": (AdapterConfig, AdapterTrainConfig), "decode": (DecodeConfig,),
                   "encoder": (HashedNgramEncoder,), "eval": (evaluate_run,)}
# at load, in place of what a stage supplies from a model or input it reads later
STAND_INS = {"vocab_size": 1, "input_dim": 1, "lm_embed_dim": 1,
             "records": (), "references": {}}


def _defaults(section):
    return {name: p.default for cls in SECTION_CLASSES[section]
            for name, p in inspect.signature(cls).parameters.items()
            if p.default is not p.empty
            and name not in ("seed", "encoder", "scorer_endpoint")}


DEFAULT_CONFIG = {
    "seed": 0,
    "artifacts_dir": "runs",
    "corpus": {
        "books_dir": None,          # directory of <title>.txt books
        "catalog": None,            # TSV title -> semicolon genre list
        "captions": None,           # caption-pair JSONL (image_ref/caption/split)
        "caption_fraction": 0.1,
    },
    "encoder": _defaults("encoder"),
    "lm": {
        "checkpoint": None,         # use an existing LM checkpoint instead of building
        **_defaults("lm"),
    },
    "mapper": _defaults("mapper"),
    "adapters": {"styles": ["romance", "action"], **_defaults("adapters")},
    "decode": _defaults("decode"),
    "eval": _defaults("eval"),
}


def _build(cls, section, **supplied):
    """A `cls` from the keys of config `section` and `supplied` that are its parameters."""
    names = inspect.signature(cls).parameters
    return cls(**{k: v for k, v in {**section, **supplied}.items() if k in names})


def _refusal(values, exc):
    """The InputError naming config keys `values` ({section.key: value}) and `exc`."""
    named = ", ".join(f"{name} = {json.dumps(value)}" for name, value in values.items())
    return InputError(f"config key{'s' * (len(values) > 1)} {named}: {exc}")


def _check_section(cfg, section):
    """Build what `section` feeds (SECTION_CLASSES, with STAND_INS). A refusal names the
    changed keys whose default alone would pass (one bad value, or the two fields of
    one rule); failing those, every changed key."""
    values, defaults = cfg[section], DEFAULT_CONFIG[section]

    def refused(trial):     # the ConfigurationError of `trial`, or None
        try:
            for cls in SECTION_CLASSES[section]:
                _build(cls, trial, **STAND_INS)
        except ConfigurationError as exc:
            return exc

    changed = [key for key in values if values[key] != defaults[key]]     # NaN too
    exc = refused(values) if changed else None      # the defaults pass
    if exc is not None:
        blamed = [k for k in changed if refused({**values, k: defaults[k]}) is None]
        raise _refusal({f"{section}.{k}": values[k] for k in blamed or changed}, exc)


def _check_type(name, default, value):
    """Raise unless `value` may stand in for `default` (see the module doc)."""
    if default is None:
        section, _, key = name.rpartition(".")
        hints = [typing.get_type_hints(cls) for cls in SECTION_CLASSES.get(section, ())]
        accepted = (type(None), next((h[key] for h in hints if key in h), str))
    else:
        accepted = (int, float) if isinstance(default, float) else (type(default),)
    ok = isinstance(value, accepted) and (bool in accepted or not isinstance(value, bool))
    if isinstance(value, list):
        ok = ok and all(isinstance(v, str) for v in value)
    if not ok:
        expected = " or ".join({type(None): "null", list: "a list of strings"}.get(
            t, t.__name__) for t in accepted)
        raise InputError(f"config key {name} must be {expected}, not {json.dumps(value)}")


def _merge(base, override, section=None):
    """A copy of `base` with the values of `override`, which may use only its
    keys, must give each section (a dict in `base`) as an object and each
    other value with the type of its default."""
    if not isinstance(override, dict):
        what = f"section {section}" if section else "the config file"
        raise InputError(f"{what} is not a JSON object")
    out = copy.deepcopy(base)
    for key, value in override.items():
        name = f"{section}.{key}" if section else key
        if key not in base:
            raise InputError(f"unknown config key {name}")
        if isinstance(base[key], dict):
            value = _merge(base[key], value, name)
        else:
            _check_type(name, base[key], value)
        out[key] = value
    return out


def load_config(path, seed=None):
    cfg = _merge(DEFAULT_CONFIG, read_json(path))
    for style in cfg["adapters"]["styles"]:     # a style names run dirs: a plain name
        if style in ("", ".", "..") or {"/", os.sep, os.altsep} & set(style):
            raise InputError("config key adapters.styles must hold plain names, not "
                             f"{json.dumps(style)}")
    for section in SECTION_CLASSES:
        _check_section(cfg, section)
    try:                            # the rule build-corpus applies to it
        corpus_mod.subsample([], cfg["corpus"]["caption_fraction"], 0)
    except ConfigurationError as exc:
        raise _refusal({"corpus.caption_fraction": cfg["corpus"]["caption_fraction"]}, exc)
    lm, adapters = cfg["lm"], cfg["adapters"]
    if not lm["checkpoint"]:        # a built LM's width is known before it is built
        try:
            _build(AdapterConfig, adapters).sized(lm["d_model"])
        except ConfigurationError as exc:
            raise _refusal({"adapters.bottleneck_dim": adapters["bottleneck_dim"],
                            "lm.d_model": lm["d_model"]}, exc)
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _require(path, what):
    if path is None:
        raise InputError(f"config does not name {what}")
    p = Path(path)
    if not p.exists():
        raise InputError(f"{what} not found: {p}")
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
        return
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


def _read_corpus(cfg):
    """(passages, caption pairs) of the complete build-corpus run."""
    run_dir = _stage(cfg, "build-corpus").require()
    captions = run_dir / "captions.jsonl"
    return (corpus_mod.load_passages(run_dir / "passages.jsonl"),
            corpus_mod.load_caption_pairs(captions) if captions.exists() else [])


# ---------------------------------------------------------------------------
# base LM materialization


def ensure_base_lm(cfg):
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
        raise InputError(f"no corpus text in {_stage(cfg, 'build-corpus').dir} to build "
                         "a base LM from")
    input_fp = fingerprint_json(texts)
    if not stage.skip(input_fp):
        with stage.run(input_fp) as (out, manifest):
            tokenizer = WordTokenizer.build(texts, max_vocab=section["max_vocab"])
            lm_config = _build(LmConfig, section, vocab_size=tokenizer.vocab_size)
            lm = CausalTransformerLM(lm_config, tokenizer, seed=cfg["seed"])
            train_cfg = _build(base_lm_pretraining, section, seed=cfg["seed"])
            if train_cfg.max_epochs > 0:
                if passages:
                    train_on_texts([p.text for p in passages], lm, train_cfg,
                                   "base-lm passages")
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
        raise InputError(f"caption dataset of {_stage(cfg, 'build-corpus').dir} is empty")
    encoder = HashedNgramEncoder(**cfg["encoder"])
    lm = ensure_base_lm(cfg)
    lm_fp = lm.fingerprint()

    stage = _stage(cfg, "train-mapper")
    data_fp = fingerprint_json([[p.image_ref, p.caption_text, p.split] for p in captions])
    input_fp = fingerprint_json(
        [data_fp, [fingerprint_file(p.image_ref) for p in captions], lm_fp])
    if stage.skip(input_fp, force):
        return

    mapper_config = _build(MapperConfig, cfg["mapper"], input_dim=encoder.embed_dim,
                           lm_embed_dim=lm.config.d_model)
    train_cfg = _build(MapperTrainConfig, cfg["mapper"], seed=cfg["seed"])
    with stage.run(input_fp) as (out, manifest):
        with _frozen(lm):
            mapper, loss_log = train_mapper(captions, encoder, lm, train_cfg, mapper_config)
        mapper.save(out / "checkpoints" / "mapper", extra_manifest={
            "train_config": vars(train_cfg),
            "encoder_model_id": encoder.model_id,
            "lm_id": lm.lm_id,
            "lm_fingerprint": lm_fp,
            "data_fingerprint": data_fp,
            "final_loss": loss_log[-1]["train_loss"],
        })
        write_jsonl(out / "loss_log.jsonl", loss_log)
        manifest.update(encoder_model_id=encoder.model_id, lm_id=lm.lm_id)
    print(f"train-mapper: final loss {loss_log[-1]['train_loss']:.4f} "
          f"after {len(loss_log)} epochs")


def _check_style(cfg, style, *more):
    known = cfg["adapters"]["styles"] + ["non-styled", *more]
    if style not in known:
        raise InputError(f"unknown style {style!r}; configured: {known}")


def cmd_train_adapter(cfg, style, force=False):
    _check_style(cfg, style)
    section = cfg["adapters"]
    train_cfg = _build(AdapterTrainConfig, section, seed=cfg["seed"])
    adapter_config = _build(AdapterConfig, section)
    passages, _ = _read_corpus(cfg)
    if style != "non-styled":
        passages = corpus_mod.filter_by_style(passages, style)
    if not passages:
        raise InputError(f"no passages for style {style!r}")
    lm = ensure_base_lm(cfg)
    lm_fp = lm.fingerprint()

    stage = _stage(cfg, "train-adapter", style, extra=style)
    data_fp = fingerprint_json([[p.source_title, p.text] for p in passages])
    input_fp = fingerprint_json([data_fp, lm_fp])
    if stage.skip(input_fp, force):
        return

    with stage.run(input_fp) as (out, manifest):
        if style == "non-styled":
            tuned, loss_log = train_full_finetune(passages, lm, train_cfg)
            tuned.save(out / "checkpoints" / "lm_finetuned")
            manifest.update(base_lm_fingerprint=lm_fp)
        else:
            with _frozen(lm):
                adapter_set, loss_log = train_adapter(passages, lm, train_cfg, style=style,
                                                      adapter_config=adapter_config)
        final = loss_log[-1]["train_loss"] if loss_log else None    # None: no epoch ran
        if style != "non-styled":
            adapter_set.save(out / "checkpoints" / "adapter", extra_manifest={
                "train_config": vars(train_cfg),
                "data_fingerprint": data_fp,
                "final_loss": final,
            })
        write_jsonl(out / "loss_log.jsonl", loss_log)
        manifest.update(style=style, n_passages=len(passages))
    print(f"train-adapter[{style}]: {len(passages)} passages, "
          + ("no epoch ran" if final is None else f"final loss {final:.4f}"))


# ---------------------------------------------------------------------------
# generation and evaluation


def _check_made_from(artifact, recorded, expected, command, base="base LM"):
    if recorded != expected:
        raise CompatibilityError(f"{artifact} was made from another {base}; run `{command}`")


def _styled_model(cfg, style, lm, lm_fp, adapter_ckpt):
    if style == "plain":
        return StyledLanguageModel(lm, None, "plain")
    if style == "non-styled":
        run_dir = _stage(cfg, "train-adapter", style, extra=style).require()
        _check_made_from(f"the fine-tuned LM in {run_dir}",
                         read_manifest(run_dir).get("base_lm_fingerprint"), lm_fp,
                         f"ppst train-adapter --style {style}")
        return StyledLanguageModel(
            CausalTransformerLM.load(run_dir / "checkpoints" / "lm_finetuned"), None,
            "full_finetune")
    adapter_set = StyleAdapterSet.load(adapter_ckpt, lm)
    _check_made_from(f"adapter {adapter_ckpt}", adapter_set.lm_fingerprint, lm_fp,
                     f"ppst train-adapter --style {style}")
    return attach(lm, adapter_set)


def _list_images(images):
    path = _require(images, "images")
    suffixes = (".pgm", ".ppm", ".pbm", ".png", ".jpg", ".jpeg")
    files = (sorted(p for p in path.iterdir() if p.suffix.lower() in suffixes and p.is_file())
             if path.is_dir() else [path])
    if not files:
        raise InputError(f"no images found under {images}")
    return files


def cmd_generate(cfg, images, style, force=False):
    _check_style(cfg, style, "plain")
    decode_cfg = _build(DecodeConfig, cfg["decode"], seed=cfg["seed"])
    image_files = _list_images(images)
    image_fp = fingerprint_json([fingerprint_file(f) for f in image_files])
    stage = _stage(cfg, "generate", style, extra={"style": style, "images": image_fp})

    mapper_ckpt = _stage(cfg, "train-mapper").require() / "checkpoints" / "mapper"
    # an adapter run is found before any model loads; the fine-tune of non-styled
    # after the mapper check below, whose error comes first
    adapter_ckpt = (None if style in ("plain", "non-styled") else _stage(
        cfg, "train-adapter", style, extra=style).require() / "checkpoints" / "adapter")
    mapper = PrefixMapper.load(mapper_ckpt)
    encoder = HashedNgramEncoder(**cfg["encoder"])
    lm = ensure_base_lm(cfg)
    lm_fp = lm.fingerprint()
    # the mapper must come from this base LM and encoder, also for non-styled,
    # whose fine-tuned LM reuses the base LM's mapper
    trained = read_manifest(mapper_ckpt)
    _check_made_from(f"mapper {mapper_ckpt}",
                     (trained.get("lm_fingerprint"), trained.get("encoder_model_id")),
                     (lm_fp, encoder.model_id), "ppst --force train-mapper",
                     "base LM or encoder")
    model = _styled_model(cfg, style, lm, lm_fp, adapter_ckpt)
    model_manifest = model.manifest()
    input_fp = fingerprint_json([image_fp, tensors_fingerprint(mapper.params()),
                                 model_manifest])
    if stage.skip(input_fp, force):
        return

    n_ok = 0
    with stage.run(input_fp) as (out, manifest):
        (out / "records").mkdir()
        with open(out / "records" / "records.jsonl", "w", encoding="utf-8") as rec_fh, \
                open(out / "records" / "timings.jsonl", "w", encoding="utf-8") as time_fh:
            for image in image_files:
                try:
                    embedding = encoder.encode_image(image)
                    prefix = mapper.map_prefix(embedding)
                    record = generate(prefix, model, decode_cfg, image_ref=str(image))
                except PpstError as exc:
                    rec_fh.write(json.dumps({"image_ref": str(image), "error": str(exc)},
                                            sort_keys=True) + "\n")
                    print(f"generate[{style}]: skipped {image}: {exc}", file=sys.stderr)
                    continue
                rec_fh.write(record.to_json_line() + "\n")
                time_fh.write(json.dumps({"image_ref": str(image),
                                          "wall_time_s": record.wall_time_s}) + "\n")
                n_ok += 1
        manifest.update(n_records=n_ok, n_images=len(image_files), model=model_manifest)
    print(f"generate[{style}]: {n_ok}/{len(image_files)} records -> "
          f"{stage.dir / 'records' / 'records.jsonl'}")


def _image_fingerprint(image_ref):
    try:
        return fingerprint_file(image_ref)
    except InputError:
        return None


def _record_row(rec):
    """One records line as an evaluable row; None for an image generate skipped."""
    if not isinstance(rec, dict):
        raise InputError(f"a record must be a JSON object, not {type(rec).__name__}")
    if "story" not in rec:
        return None
    row = SimpleNamespace(image_ref=rec["image_ref"], story_text=rec["story"],
                          style=rec.get("style", ""))
    if not all(isinstance(f, str) for f in vars(row).values()):
        raise InputError("a record's image_ref, story and style must be strings")
    require_utf8(image_ref=row.image_ref, style=row.style)   # a story's: clip_score_error
    return row


def cmd_evaluate(cfg, records_path, gold_path, force=False):
    records_path = _require(records_path, "records file")
    gold_path = _require(gold_path, "gold captions file")
    rows = read_jsonl(records_path, _record_row)
    if not rows:
        raise InputError(f"no evaluable records in {records_path}")

    references = {}
    for pair in corpus_mod.load_caption_pairs(gold_path):
        references.setdefault(pair.image_ref, []).append(pair.caption_text)

    records_fp = fingerprint_file(records_path)
    gold_fp = fingerprint_file(gold_path)
    stage = _stage(cfg, "evaluate", extra={"records": records_fp, "gold": gold_fp})
    # records, gold and the images CLIPScore reads (None for an unreadable one)
    input_fp = fingerprint_json([records_fp, gold_fp, [
        _image_fingerprint(row.image_ref) for row in rows if row.image_ref in references]])
    if stage.skip(input_fp, force):
        return

    report = evaluate_run(rows, references, encoder=HashedNgramEncoder(**cfg["encoder"]),
                          scorer_endpoint=os.environ.get(SCORER_ENDPOINT_ENV), **cfg["eval"])
    if not report.per_item:
        raise InputError(f"no record of {records_path} has gold references in {gold_path}; "
                         "nothing to evaluate")

    with stage.run(input_fp) as (out, manifest):
        (out / "reports").mkdir()
        (out / "reports" / "report.jsonl").write_text(report.to_jsonl(), encoding="utf-8")
        (out / "reports" / "report.txt").write_text(report.to_table(), encoding="utf-8")
        manifest.update(n_items=len(report.per_item), unavailable=sorted(report.unavailable))
    print(report.to_table())
    if report.unavailable:
        print(f"evaluate: unavailable metrics: {', '.join(sorted(report.unavailable))}")
    print(f"evaluate: report -> {stage.dir / 'reports' / 'report.jsonl'}")


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
    sub.add_parser("train-adapter").add_argument("--style", required=True)
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
        {
            "build-corpus": lambda: cmd_build_corpus(cfg, args.force),
            "train-mapper": lambda: cmd_train_mapper(cfg, args.force),
            "train-adapter": lambda: cmd_train_adapter(cfg, args.style, args.force),
            "generate": lambda: cmd_generate(cfg, args.images, args.style, args.force),
            "evaluate": lambda: cmd_evaluate(cfg, args.records, args.gold, args.force),
        }[args.command]()
    except TrainingDiverged as exc:
        print(f"ppst {args.command}: numeric failure: {exc}", file=sys.stderr)
        return 3
    except PpstError as exc:
        print(f"ppst {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:          # a failed read or write: a full disk, a bad path
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"ppst {args.command}: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2
    print(f"ppst {args.command}: done in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
