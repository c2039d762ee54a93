import functools
import inspect
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import pytest

from ppst.artifacts import load_tensors
from ppst.cli import main
from ppst.corpus import save_caption_pairs
from ppst.synthetic import make_book_files, make_caption_dataset, render_text_image


def workspace_config(root, run_name="runs"):
    """The small config of a workspace at `root` (names paths, writes nothing)."""
    root = Path(root)
    return {
        "seed": 7,
        "artifacts_dir": str(root / run_name),
        "corpus": {
            "books_dir": str(root / "books"),
            "catalog": str(root / "books" / "catalog.tsv"),
            "captions": str(root / "captions_in.jsonl"),
            "caption_fraction": 1.0,
        },
        "encoder": {"embed_dim": 32, "n_buckets": 256, "max_text_tokens": 24},
        "lm": {"n_layer": 1, "n_head": 2, "d_model": 16, "d_ff": 32,
               "max_seq_len": 64, "max_vocab": 256, "pretrain_epochs": 1,
               "batch_size": 16},
        "mapper": {"hidden_dim": 32, "prefix_length": 4, "max_epochs": 2,
                   "batch_size": 8, "max_seq_len": 24},
        "adapters": {"styles": ["romance", "action"], "max_epochs": 1,
                     "batch_size": 16, "max_seq_len": 64, "val_fraction": 0.0},
        "decode": {"beam_size": 3, "top_k": 5, "min_length": 4, "max_length": 16,
                   "length_decay_start": 4},
    }


def build_workspace(tmp_path, run_name="runs"):
    """Books + catalog + captions + a small config; returns (config_path, cfg dict)."""
    make_book_files(tmp_path / "books", seed=0)
    pairs = make_caption_dataset(tmp_path / "images", 12, seed=1)
    save_caption_pairs(pairs, tmp_path / "captions_in.jsonl")
    cfg = workspace_config(tmp_path, run_name)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2))
    return config_path, cfg


def run_dirs(cfg, stage_prefix):
    root = Path(cfg["artifacts_dir"])
    return sorted(p for p in root.iterdir() if p.name.startswith(stage_prefix))


# ---------------------------------------------------------------------------
# build-corpus


def test_build_corpus_counts_match_recount(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    (run_dir,) = run_dirs(cfg, "build-corpus-")

    passages = [json.loads(l) for l in (run_dir / "passages.jsonl").read_text().splitlines()]
    # brute-force recount straight from the book files, catalog-matched titles only
    expected = 0
    for name in ("Letters at Dusk", "Steel Convoy"):
        text = (tmp_path / "books" / f"{name}.txt").read_text()
        for para in re.split(r"\n\s*\n", text):
            if 30 <= len(para.split()) <= 60:
                expected += 1
    assert len(passages) == expected
    assert all(30 <= p["word_count"] <= 60 for p in passages)
    # the uncatalogued book must have been dropped
    assert not any("Uncatalogued" in p["source_title"] for p in passages)

    counts = json.loads((run_dir / "genre_counts.json").read_text())
    assert counts["romance"] > 0 and counts["action"] > 0
    captions = (run_dir / "captions.jsonl").read_text().splitlines()
    assert len(captions) == 12


def test_build_corpus_empty_books_dir(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    for f in (tmp_path / "books").glob("*.txt"):
        f.unlink()
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    (run_dir,) = run_dirs(cfg, "build-corpus-")
    assert (run_dir / "passages.jsonl").read_text() == ""
    counts = json.loads((run_dir / "genre_counts.json").read_text())
    assert all(v == 0 for v in counts.values())


def test_build_corpus_missing_inputs_exit_2(tmp_path):
    config_path, cfg = build_workspace(tmp_path)
    user = json.loads(config_path.read_text())
    user["corpus"]["books_dir"] = str(tmp_path / "missing")
    config_path.write_text(json.dumps(user))
    assert main(["--config", str(config_path), "build-corpus"]) == 2


@pytest.mark.parametrize("user, message", [
    ([1, 2], "the config file is not a JSON object"),
    ({"corpus": 5}, "section corpus is not a JSON object"),
    ({"decode": {"beam_sise": 3}}, "unknown config key decode.beam_sise"),
    ({"decode": {"seed": 3}}, "unknown config key decode.seed"),
    ({"lm": {"n_layers": 3}}, "unknown config key lm.n_layers"),
    ({"sed": 3}, "unknown config key sed"),
    ({"decode": {"beam_size": "3"}}, "config key decode.beam_size must be int"),
    ({"decode": {"top_k": True}}, "config key decode.top_k must be int"),
    ({"decode": {"max_length": 1.5}}, "config key decode.max_length must be null or int"),
    ({"lm": {"d_model": 1.5}}, "config key lm.d_model must be int"),
    ({"mapper": {"activation": 3}}, "config key mapper.activation must be str"),
    ({"adapters": {"styles": "romance"}}, "config key adapters.styles must be a list"),
    ({"adapters": {"styles": ["romance", 3]}}, "config key adapters.styles must be a list"),
    ({"encoder": {"model_id": 3}}, "config key encoder.model_id must be null or str"),
    ({"corpus": {"books_dir": 5}}, "config key corpus.books_dir must be null or str"),
    ({"eval": {"clip_weight": "x"}}, "config key eval.clip_weight must be int or float"),
    ({"eval": {"clip_weight": False}}, "config key eval.clip_weight must be int or float"),
    ({"seed": "7"}, "config key seed must be int"),
    ({"decode": {"beam_size": 0}}, "beam_size must be >= 1"),
    ({"lm": {"pretrain_epochs": -1}},
     "config key lm.pretrain_epochs = -1: AdapterTrainConfig.max_epochs must be >= 0"),
    ({"lm": {"max_vocab": 0}},
     "config key lm.max_vocab = 0: base_lm_pretraining.max_vocab must be >= 5"),
    ({"lm": {"max_vocab": -3}},
     "config key lm.max_vocab = -3: base_lm_pretraining.max_vocab must be >= 5"),
    ({"adapters": {"styles": ["/../../x"]}}, "config key adapters.styles must hold plain"),
    ({"adapters": {"styles": ["romance", ".."]}}, "config key adapters.styles must hold plain"),
    ({"adapters": {"styles": [""]}}, "config key adapters.styles must hold plain"),
], ids=["list", "section-not-object", "decode-typo", "decode-seed", "lm-typo", "top-level",
        "str-for-int", "bool-for-int", "float-for-optional-int", "float-for-int",
        "int-for-str", "str-for-list", "list-of-non-str", "int-for-optional-str",
        "int-for-path", "str-for-float", "bool-for-float", "str-for-seed",
        "decode-out-of-range", "pretrain-epochs-negative", "max-vocab-zero",
        "max-vocab-negative", "style-path", "style-dotdot", "style-empty"])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, user, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(user))
    assert main(["--config", str(config_path), "generate", "--style", "plain",
                 "--images", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err


def test_config_int_passes_for_float_uncoerced(tmp_path):
    from ppst.cli import load_config
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"lm": {"learning_rate": 1},
                                       "decode": {"max_length": 40}}))
    cfg = load_config(config_path)
    assert cfg["lm"]["learning_rate"] == 1 and type(cfg["lm"]["learning_rate"]) is int
    assert cfg["decode"]["max_length"] == 40


CHECKED_SECTIONS = ("lm", "encoder", "mapper", "adapters", "decode", "eval")


def test_every_checked_key_is_a_parameter_of_one_section_class():
    """A key reaches the load-time check only through the class that takes it."""
    from ppst import cli
    for section in CHECKED_SECTIONS:
        for key, default in cli.DEFAULT_CONFIG[section].items():
            if f"{section}.{key}" in ("lm.checkpoint", "adapters.styles"):
                continue
            owners = [p.default for cls in cli.SECTION_CLASSES[section]
                      for name, p in inspect.signature(cls).parameters.items()
                      if name == key and p.default is not p.empty]
            assert owners == [default], f"{section}.{key}"


def numeric_sweep():
    """Each numeric key of the workspace at 0 and -1, and at NaN when it takes a float."""
    from ppst.cli import DEFAULT_CONFIG
    cfg = workspace_config("/workspace")
    return [(section, key, value) for section in CHECKED_SECTIONS
            for key, v in {**DEFAULT_CONFIG[section], **cfg.get(section, {})}.items()
            if type(v) in (int, float)
            for value in (0, -1) + ((math.nan,) if type(DEFAULT_CONFIG[section][key]) is float
                                    else ())]


SWEEP = numeric_sweep()
LEGAL = {("lm", "d_ff", 0), ("lm", "pretrain_epochs", 0), ("adapters", "bottleneck_dim", 0),
         ("adapters", "max_epochs", 0), ("adapters", "val_fraction", 0),
         ("decode", "length_decay_start", 0), ("decode", "length_decay_start", -1),
         ("decode", "min_length", 0)}


def test_sweep_covers_36_numeric_keys():
    assert len({(s, k) for s, k, _ in SWEEP}) == 36 and len(SWEEP) == 81
    assert LEGAL <= set(SWEEP)


@pytest.mark.parametrize("section, key, value", SWEEP,
                         ids=[f"{s}.{k}={v}" for s, k, v in SWEEP])
def test_every_numeric_value_is_checked_at_load(tmp_path, capsys, section, key, value):
    from ppst.cli import load_config
    cfg = workspace_config(tmp_path)
    cfg.setdefault(section, {})[key] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    if (section, key, value) in LEGAL:
        assert load_config(config_path)[section][key] == value
        return
    assert main(["--config", str(config_path), "build-corpus"]) == 2
    err = capsys.readouterr().err
    assert f"config key {section}.{key} = {json.dumps(value)}: " in err, err
    assert "Traceback" not in err and not (tmp_path / "runs").exists(), err


@pytest.mark.parametrize("section, owner", [("lm", "AdapterTrainConfig"),
                                            ("mapper", "MapperTrainConfig"),
                                            ("adapters", "AdapterTrainConfig")])
def test_infinite_learning_rate_exits_2_at_load(tmp_path, capsys, section, owner):
    """JSON `Infinity` parses, and an infinite step would train non-finite weights."""
    cfg = workspace_config(tmp_path)
    cfg.setdefault(section, {})["learning_rate"] = math.inf
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    assert main(["--config", str(config_path), "build-corpus"]) == 2
    err = capsys.readouterr().err
    assert (f"config key {section}.learning_rate = Infinity: {owner}.learning_rate must be "
            "positive and finite") in err, err
    assert "Traceback" not in err and not (tmp_path / "runs").exists(), err


@pytest.mark.parametrize("command", ["build-corpus", "train-mapper"])
@pytest.mark.parametrize("fraction", [2.0, 0, -0.5, math.nan])
def test_caption_fraction_outside_0_1_exits_2_at_load(tmp_path, capsys, command, fraction):
    """The rule `subsample` applies in build-corpus, checked before any command runs."""
    cfg = workspace_config(tmp_path)
    cfg["corpus"]["caption_fraction"] = fraction
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    assert main(["--config", str(config_path), command]) == 2
    err = capsys.readouterr().err
    assert (f"config key corpus.caption_fraction = {json.dumps(fraction)}: fraction must "
            "be in (0, 1]") in err, err
    assert "Traceback" not in err and not (tmp_path / "runs").exists(), err


def test_load_builds_the_encoder_only_for_a_changed_encoder_section(tmp_path, monkeypatch):
    """The default encoder's projection is the one costly build of the load check."""
    from ppst import cli
    built, init = [], cli.HashedNgramEncoder.__init__

    @functools.wraps(init)
    def counting_init(self, *args, **kwargs):
        built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.HashedNgramEncoder, "__init__", counting_init)
    config_path = tmp_path / "config.json"
    for user, builds in (({"lm": {"d_model": 64}, "decode": {"beam_size": 2}}, 0),
                         (workspace_config(tmp_path), 1)):
        config_path.write_text(json.dumps(user))
        cli.load_config(config_path)
        assert len(built) == builds


def test_d_model_and_n_head_that_do_not_divide_exit_2_naming_both(tmp_path, capsys):
    from ppst.cli import load_config
    cfg = workspace_config(tmp_path)        # no build-corpus run to read
    cfg["lm"].update(d_model=18, n_head=4)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "config.json"), "train-mapper"]) == 2
    err = capsys.readouterr().err
    assert "config keys lm.n_head = 4, lm.d_model = 18: " in err, err
    assert "multiple of LmConfig.n_head" in err and "Traceback" not in err, err
    cfg["lm"].update(d_model=24, n_head=3)      # n_head 3 alone fails the default d_model 32
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert load_config(tmp_path / "config.json")["lm"]["n_head"] == 3


# Run-dir names hash the resolved config: a change to how the config is
# resolved must not rename any stage's runs.
STAGE_HASHES = {
    "default": {
        "build-corpus": "d9499c8db2aa16e8328862d78b9476744c2df1488a66631c80c76a4c25025c1e",
        "base-lm": "79dadfa07c2b252ba795b2e7003bfd77a2030ae7a543013a38f6ffa2347c015e",
        "train-mapper": "a4dc51b9cedecd113e19fa54a06afa3b77f5ac3aeded60153fbfe308be67fc81",
        "train-adapter": "9683935663b9f1397a6e1e73ed5bf7fb57f9a44e7fd2a049ba0545795199f749",
        "generate": "17c6177bc8d72b23489e7a849329fda764dc10fd291f20887bdb8cf7c5acfed7",
        "evaluate": "f9cc196ce2f4864ed9912659f3330b9698267a9342d23964844bc73ea385fe28",
    },
    "workspace": {
        "build-corpus": "ec66950b1e0e2c55efeaf4ddaa445d58e0c00ede9ce31ae0b05ebf8327b69710",
        "base-lm": "5881e8180d510f873c53ee0ed04cd583aa038e863574c2435feda8e855eb40ba",
        "train-mapper": "56e2ed9490775ba96f8d51a42d7e1a0767966b4d4d36113a478edaaf56a78335",
        "train-adapter": "f0841e5e2bc74cb843255180e7cc6b43bc20873597792ea1cd9d8ec88374c1a6",
        "generate": "1531e4cf588236a94d4a04db07ad612ff23243ae6cc7a48248ce028149b491b2",
        "evaluate": "ca0d1d8a9dd6979f1827dfdb0f57e96a346f928f3fbb1db7c69aa5f1e791873c",
    },
}


@pytest.mark.parametrize("name", sorted(STAGE_HASHES))
def test_stage_config_hashes_are_pinned(tmp_path, name):
    from ppst import cli
    user = {} if name == "default" else workspace_config("/workspace")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(user))
    cfg = cli.load_config(config_path)
    assert {kind: cli._stage(cfg, kind).config_hash
            for kind in cli.STAGE_SECTIONS} == STAGE_HASHES[name]


def skipped(command, out):
    """Whether `out` says the stage of `command` was up to date."""
    return re.search(rf"^{command}\S*: up to date", out, re.M) is not None


def grow_action_book(root):
    """Append a 40-word paragraph to an action book, which changes the corpus
    and so the base LM built from it."""
    with open(Path(root) / "books" / "Steel Convoy.txt", "a", encoding="utf-8") as fh:
        fh.write("\n\n" + " ".join(["convoy"] * 40))


def test_rebuilt_base_lm_leaves_no_downstream_run_up_to_date(tmp_path, capsys):
    config_path, _ = build_workspace(tmp_path)
    steps = (["train-mapper"], ["train-adapter", "--style", "romance"],
             ["generate", "--style", "romance", "--images", str(tmp_path / "images")])
    for argv in (["build-corpus"], *steps):
        assert main(["--config", str(config_path), *argv]) == 0
    grow_action_book(tmp_path)
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    for argv in steps:
        capsys.readouterr()
        assert main(["--config", str(config_path), *argv]) == 0
        out = capsys.readouterr().out
        assert not skipped(argv[0], out), out
        if argv == ["train-mapper"]:
            assert "base-lm: built" in out
    for argv in steps:                   # over unchanged inputs each one skips
        assert main(["--config", str(config_path), *argv]) == 0
        assert skipped(argv[0], capsys.readouterr().out), argv


def test_replaced_caption_image_leaves_mapper_not_up_to_date(tmp_path, capsys):
    config_path, _ = build_workspace(tmp_path)
    for argv in (["build-corpus"], ["train-mapper"]):
        assert main(["--config", str(config_path), *argv]) == 0
    render_text_image(sorted((tmp_path / "images").glob("*.pgm"))[0], "another picture")
    capsys.readouterr()
    assert main(["--config", str(config_path), "train-mapper"]) == 0
    assert not skipped("train-mapper", capsys.readouterr().out)


def test_generate_rejects_fine_tune_of_an_older_base_lm(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    fine_tune = ["--config", str(config_path), "train-adapter", "--style", "non-styled"]
    for argv in (["build-corpus"], ["train-mapper"]):
        assert main(["--config", str(config_path), *argv]) == 0
    assert main(fine_tune) == 0
    grow_action_book(tmp_path)
    for argv in (["build-corpus"], ["--force", "train-mapper"]):
        assert main(["--config", str(config_path), *argv]) == 0
    (run_dir,) = run_dirs(cfg, "train-adapter-non-styled-")
    generate = ["--config", str(config_path), "generate", "--style", "non-styled",
                "--images", str(tmp_path / "images")]
    capsys.readouterr()
    assert main(generate) == 2
    err = capsys.readouterr().err
    assert f"the fine-tuned LM in {run_dir} was made from another base LM" in err, err
    assert "ppst train-adapter --style non-styled" in err and "Traceback" not in err
    # the fine-tune is no longer up to date, and once re-run it passes the check
    assert main(fine_tune) == 0
    assert not skipped("train-adapter", capsys.readouterr().out)
    assert main(generate) == 0


def test_generate_rejects_adapter_of_an_older_base_lm(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    adapter = ["--config", str(config_path), "train-adapter", "--style", "romance"]
    for argv in (["build-corpus"], ["train-mapper"]):
        assert main(["--config", str(config_path), *argv]) == 0
    assert main(adapter) == 0
    grow_action_book(tmp_path)
    for argv in (["build-corpus"], ["train-mapper"]):
        assert main(["--config", str(config_path), *argv]) == 0
    (run_dir,) = run_dirs(cfg, "train-adapter-romance-")
    generate = ["--config", str(config_path), "generate", "--style", "romance",
                "--images", str(tmp_path / "images")]
    capsys.readouterr()
    assert main(generate) == 2
    err = capsys.readouterr().err
    assert f"adapter {run_dir / 'checkpoints' / 'adapter'} was made from another base LM" \
        in err, err
    assert "ppst train-adapter --style romance" in err and "Traceback" not in err
    # the adapter is no longer up to date, and once re-run it passes the check
    assert main(adapter) == 0
    assert main(generate) == 0


def test_build_corpus_rerun_is_skipped(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    capsys.readouterr()
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    assert "up to date" in capsys.readouterr().out
    # --force re-runs
    assert main(["--config", str(config_path), "--force", "build-corpus"]) == 0
    assert "up to date" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# training commands


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared pipeline run: corpus, mapper, both adapters, non-styled."""
    tmp = tmp_path_factory.mktemp("pipeline")
    config_path, cfg = build_workspace(tmp)
    for argv in (["build-corpus"], ["train-mapper"],
                 ["train-adapter", "--style", "romance"],
                 ["train-adapter", "--style", "non-styled"]):
        assert main(["--config", str(config_path)] + argv) == 0
    return tmp, config_path, cfg


def test_train_mapper_outputs(trained):
    _, _, cfg = trained
    (run_dir,) = run_dirs(cfg, "train-mapper-")
    log_lines = (run_dir / "loss_log.jsonl").read_text().splitlines()
    assert len(log_lines) == cfg["mapper"]["max_epochs"]   # one entry per epoch
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["encoder_model_id"].startswith("hashed-ngram")
    assert manifest["lm_id"].startswith("base-lm")
    mapper_manifest = json.loads(
        (run_dir / "checkpoints" / "mapper" / "manifest.json").read_text())
    assert mapper_manifest["encoder_model_id"] == manifest["encoder_model_id"]
    assert "final_loss" in mapper_manifest


def test_train_adapter_unknown_style_exit_2(trained):
    tmp, config_path, _ = trained
    assert main(["--config", str(config_path), "train-adapter",
                 "--style", "space opera"]) == 2


def test_numeric_failure_exits_3(trained, monkeypatch):
    from ppst import cli
    from ppst.errors import TrainingDiverged

    def diverge(*args, **kwargs):
        raise TrainingDiverged("non-finite mapper loss at epoch 0")

    monkeypatch.setattr(cli, "train_mapper", diverge)
    _, config_path, _ = trained
    assert main(["--config", str(config_path), "--force", "train-mapper"]) == 3


def test_manifest_embeds_resolved_config(trained):
    _, _, cfg = trained
    (run_dir,) = run_dirs(cfg, "train-mapper-")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    resolved = manifest["resolved_config"]
    assert resolved["seed"] == cfg["seed"]
    assert resolved["mapper"]["prefix_length"] == cfg["mapper"]["prefix_length"]
    assert resolved["lm"]["d_model"] == cfg["lm"]["d_model"]


def test_run_directory_lock_blocks_concurrent_writer(tmp_path):
    from ppst.artifacts import run_lock
    from ppst.errors import ConfigurationError
    with run_lock(tmp_path / "run"):
        with pytest.raises(ConfigurationError, match="locked"):
            with run_lock(tmp_path / "run"):
                pass
    with run_lock(tmp_path / "run"):   # released cleanly afterwards
        pass


def test_train_adapter_both_default_styles(trained):
    tmp, config_path, cfg = trained
    assert main(["--config", str(config_path), "train-adapter",
                 "--style", "action"]) == 0
    assert run_dirs(cfg, "train-adapter-romance-")
    assert run_dirs(cfg, "train-adapter-action-")


def test_adapter_activation_applies_with_default_bottleneck(tmp_path):
    config_path, cfg = build_workspace(tmp_path)
    cfg["adapters"]["activation"] = "tanh"
    config_path.write_text(json.dumps(cfg))
    for argv in (["build-corpus"], ["train-adapter", "--style", "romance"]):
        assert main(["--config", str(config_path)] + argv) == 0
    (run_dir,) = run_dirs(cfg, "train-adapter-romance-")
    manifest = json.loads(
        (run_dir / "checkpoints" / "adapter" / "manifest.json").read_text())
    assert manifest["config"]["activation"] == "tanh"
    assert manifest["config"]["bottleneck_dim"] == cfg["lm"]["d_model"] // 8


def test_adapter_patience_below_one_exits_2(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    cfg["adapters"].update(patience=0, max_epochs=5, val_fraction=0.5)
    config_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["--config", str(config_path), "train-adapter", "--style", "romance"]) == 2
    err = capsys.readouterr().err
    assert "patience must be >= 1" in err and "Traceback" not in err, err
    assert not (tmp_path / "runs").exists()


ADAPTER_COMMAND = ["train-adapter", "--style", "romance"]
# 0 is a legal adapters.max_epochs and adapters.bottleneck_dim; NaN fails "> 0" too
TRAINING_RANGE_CASES = (
    [("mapper", key, value, ["train-mapper"])
     for key in ("hidden_dim", "prefix_length", "max_epochs", "learning_rate", "batch_size",
                 "max_seq_len")
     for value in (0, -1)]
    + [("encoder", key, value, ["train-mapper"])
       for key in ("embed_dim", "n_buckets", "max_text_tokens") for value in (0, -1)]
    + [("adapters", key, value, ADAPTER_COMMAND)
       for key in ("batch_size", "max_seq_len", "learning_rate") for value in (0, -1)]
    + [("adapters", "max_epochs", -1, ADAPTER_COMMAND),
       ("adapters", "bottleneck_dim", -1, ADAPTER_COMMAND),
       ("adapters", "learning_rate", math.nan, ADAPTER_COMMAND),
       ("mapper", "learning_rate", math.nan, ["train-mapper"])])


@pytest.mark.parametrize("section, key, value, command", TRAINING_RANGE_CASES,
                         ids=[f"{s}.{k}={v}" for s, k, v, _ in TRAINING_RANGE_CASES])
def test_bad_training_value_exits_2_before_the_base_lm(tmp_path, capsys, section, key,
                                                       value, command):
    config_path, cfg = build_workspace(tmp_path)
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    cfg[section][key] = value
    config_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["--config", str(config_path), *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ppst {command[0]}: ") and "Traceback" not in err, err
    assert f".{key} must be " in err, err
    assert run_dirs(cfg, "base-lm-") == []


@pytest.mark.parametrize("key, value", [(key, value) for key in ("batch_size", "learning_rate")
                                        for value in (0, -1)])
def test_bad_pretraining_value_exits_2_naming_the_field(tmp_path, capsys, key, value):
    """Base-LM pretraining reads `lm.batch_size` and `lm.learning_rate` through
    AdapterTrainConfig; the error names the config key and the field."""
    config_path, cfg = build_workspace(tmp_path)
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    cfg["lm"][key] = value
    config_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["--config", str(config_path), "train-mapper"]) == 2
    err = capsys.readouterr().err
    assert f"config key lm.{key} = {value}: AdapterTrainConfig.{key} must be " in err, err
    assert "Traceback" not in err, err


def test_bottleneck_as_wide_as_the_lm_exits_2_before_the_base_lm(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    cfg["adapters"]["bottleneck_dim"] = cfg["lm"]["d_model"]
    config_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["--config", str(config_path), *ADAPTER_COMMAND]) == 2
    err = capsys.readouterr().err
    assert "config keys adapters.bottleneck_dim = 16, lm.d_model = 16: " in err, err
    assert "Traceback" not in err and run_dirs(cfg, "base-lm-") == [], err


def test_train_adapter_zero_epochs_saves_identity_adapter(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    cfg["adapters"]["max_epochs"] = 0
    config_path.write_text(json.dumps(cfg))
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    capsys.readouterr()
    assert main(["--config", str(config_path), "train-adapter", "--style", "romance"]) == 0
    assert "no epoch ran" in capsys.readouterr().out
    (run_dir,) = run_dirs(cfg, "train-adapter-romance-")
    checkpoint = run_dir / "checkpoints" / "adapter"
    assert json.loads((checkpoint / "manifest.json").read_text())["final_loss"] is None
    assert (run_dir / "loss_log.jsonl").read_text() == ""
    up = {name: t for name, t in load_tensors(checkpoint).items() if ".up." in name}
    assert up and not any(t.any() for t in up.values())    # the identity map


def test_non_styled_produces_finetuned_checkpoint(trained):
    _, _, cfg = trained
    (run_dir,) = run_dirs(cfg, "train-adapter-non-styled-")
    assert (run_dir / "checkpoints" / "lm_finetuned" / "tensors.bin").exists()


def test_weights_beyond_float32_exit_3_and_commit_no_mapper(tmp_path, capsys):
    """A finite learning rate can train float64 weights that float32, the checkpoint
    format, cannot hold: the save refuses them, so no run commits an inf."""
    config_path, cfg = build_workspace(tmp_path)
    cfg["mapper"]["learning_rate"] = 1e300
    config_path.write_text(json.dumps(cfg))
    assert main(["--config", str(config_path), "build-corpus"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the training's own float64 overflow
        assert main(["--config", str(config_path), "train-mapper"]) == 3
    err = capsys.readouterr().err
    assert re.search(r"numeric failure: tensor '[^']+' of checkpoint \S+/checkpoints/mapper "
                     "is not finite in float32", err), err
    assert ".staging" not in err, err           # the staging dir is gone by now
    assert not any((d / "manifest.json").exists() for d in run_dirs(cfg, "train-mapper-"))


# ---------------------------------------------------------------------------
# generation and evaluation


@pytest.fixture
def trained_copy(trained, tmp_path):
    """The shared pipeline's runs copied for one test to alter: (images, config path,
    cfg). The config differs only in `artifacts_dir`, which no run dir's name hashes."""
    tmp, _, shared = trained
    cfg = {**shared, "artifacts_dir": str(tmp_path / "runs")}
    shutil.copytree(shared["artifacts_dir"], cfg["artifacts_dir"])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    return tmp / "images", config_path, cfg


# kind: (run dir prefix, checkpoint, the style whose generate reads it)
CHECKPOINTS = {"lm": ("base-lm-", "lm", "plain"),
               "mapper": ("train-mapper-", "mapper", "plain"),
               "adapter": ("train-adapter-romance-", "adapter", "romance"),
               "fine-tune": ("train-adapter-non-styled-", "lm_finetuned", "non-styled")}


@pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
def test_nan_in_a_checkpoint_exits_2_naming_the_file(trained_copy, capsys, kind):
    images, config_path, cfg = trained_copy
    prefix, name, style = CHECKPOINTS[kind]
    (run_dir,) = run_dirs(cfg, prefix)
    checkpoint = run_dir / "checkpoints" / name
    entry = json.loads((checkpoint / "tensors.json").read_text())[-1]
    with open(checkpoint / "tensors.bin", "r+b") as fh:
        fh.seek(entry["offset"])
        fh.write(b"\x00\x00\xc0\x7f")       # a float32 NaN, little-endian
    assert main(["--config", str(config_path), "generate", "--style", style,
                 "--images", str(images)]) == 2
    err = capsys.readouterr().err
    assert (f"{checkpoint / 'tensors.bin'} holds a non-finite value in tensor "
            f"{entry['name']!r}") in err, err


def test_adapter_manifest_with_the_retired_init_key_loads(trained_copy, capsys):
    """Adapter manifests written while `AdapterConfig` had an `init` field hold
    "zero_up_projection", the one value it took: they load and decode bit-equal.
    Any other init is no config this code can build."""
    images, config_path, cfg = trained_copy
    argv = ["--config", str(config_path), "--force", "generate", "--style", "romance",
            "--images", str(images)]
    (adapter_run,) = run_dirs(cfg, "train-adapter-romance-")
    manifest_path = adapter_run / "checkpoints" / "adapter" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "init" not in manifest["config"]
    records = []
    for init in (None, "zero_up_projection"):
        if init is not None:
            manifest["config"]["init"] = init
            manifest_path.write_text(json.dumps(manifest))
        assert main(argv) == 0
        (run_dir,) = run_dirs(cfg, "generate-romance-")
        records.append((run_dir / "records" / "records.jsonl").read_bytes())
    assert records[0] == records[1]
    manifest["config"]["init"] = "xavier"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{manifest_path} does not describe a style_adapter_set model" in err, err
    assert "init" in err, err


def test_generate_records_in_input_order_and_deterministic(trained, tmp_path):
    tmp, config_path, cfg = trained
    images = tmp / "images"
    assert main(["--config", str(config_path), "generate", "--style", "romance",
                 "--images", str(images)]) == 0
    (run_dir,) = run_dirs(cfg, "generate-romance-")
    records_path = run_dir / "records" / "records.jsonl"
    lines = records_path.read_text().splitlines()
    image_files = sorted(images.glob("*.pgm"))
    assert len(lines) == len(image_files)
    assert [json.loads(l)["image_ref"] for l in lines] == [str(p) for p in image_files]
    for line in lines:
        rec = json.loads(line)
        assert rec["style"] == "romance"
        assert rec["wall_time_s"] is None
        assert rec["seed"] == cfg["seed"]
    timings = (run_dir / "records" / "timings.jsonl").read_text().splitlines()
    assert len(timings) == len(lines)
    assert all(json.loads(t)["wall_time_s"] > 0 for t in timings)

    # byte-identical on a fresh rerun into a separate artifacts root
    user = json.loads(Path(config_path).read_text())
    user["artifacts_dir"] = str(tmp_path / "runs2")
    config2 = tmp_path / "config2.json"
    config2.write_text(json.dumps(user))
    for argv in (["build-corpus"], ["train-mapper"],
                 ["train-adapter", "--style", "romance"]):
        assert main(["--config", str(config2)] + argv) == 0
    assert main(["--config", str(config2), "generate", "--style", "romance",
                 "--images", str(images)]) == 0
    (run_dir2,) = run_dirs(user, "generate-romance-")
    assert (run_dir2 / "records" / "records.jsonl").read_bytes() == \
        records_path.read_bytes()


def test_generate_writes_decode_events_to_timings_and_once_to_stderr(trained_copy, tmp_path,
                                                                    capsys):
    """A `decode.max_length` past the LM context clips every story: each record's
    timings line holds the clip with its other decode fields, and stderr holds it
    once for the stage."""
    images, config_path, cfg = trained_copy
    cfg = dict(cfg, decode=dict(cfg["decode"], max_length=100))
    config_path.write_text(json.dumps(cfg))
    few = tmp_path / "few"
    few.mkdir()
    for image in sorted(images.glob("*.pgm"))[:3]:
        shutil.copy(image, few)
    before = run_dirs(cfg, "generate-plain-")
    capsys.readouterr()
    assert main(["--config", str(config_path), "generate", "--style", "plain",
                 "--images", str(few)]) == 0
    clip = "max_length clipped to 60 by model context"      # 64 positions, 4 prefix rows
    assert capsys.readouterr().err.count(clip) == 1
    (run_dir,) = set(run_dirs(cfg, "generate-plain-")) - set(before)
    records = [json.loads(line) for line in
               (run_dir / "records" / "records.jsonl").read_text().splitlines()]
    timings = [json.loads(line) for line in
               (run_dir / "records" / "timings.jsonl").read_text().splitlines()]
    assert len(timings) == len(records) == 3
    for record, timing in zip(records, timings):
        assert set(timing) == {"image_ref", "wall_time_s", "token_count", "finished",
                               "cumulative_log_prob", "warnings"}
        assert (timing["image_ref"], timing["token_count"]) == \
            (record["image_ref"], record["token_count"])
        assert timing["wall_time_s"] > 0 and timing["cumulative_log_prob"] < 0
        assert clip in timing["warnings"]


def test_generate_fingerprints_the_model_once_per_stage(trained, monkeypatch):
    """The records carry the manifest the stage's input fingerprint covers,
    not one recomputed per image."""
    import sys
    from ppst import artifacts

    tmp, config_path, _ = trained
    real = artifacts.tensors_fingerprint
    calls = []

    def counting(params):
        calls.append(1)
        return real(params)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("ppst") and \
                getattr(module, "tensors_fingerprint", None) is real:
            monkeypatch.setattr(module, "tensors_fingerprint", counting)
    images = tmp / "images"
    assert len(list(images.glob("*.pgm"))) == 12
    assert main(["--config", str(config_path), "--force", "generate", "--style", "romance",
                 "--images", str(images)]) == 0
    assert 0 < len(calls) <= 5


def test_generate_skips_unreadable_image(trained, tmp_path):
    tmp, config_path, cfg = trained
    images = tmp_path / "mixed"
    images.mkdir()
    good = sorted((tmp / "images").glob("*.pgm"))[0]
    (images / "00_broken.pgm").write_bytes(b"P5 4 4 255\nxx")
    (images / "01_good.pgm").write_bytes(good.read_bytes())
    assert main(["--config", str(config_path), "generate", "--style", "plain",
                 "--images", str(images)]) == 0
    (run_dir,) = run_dirs(cfg, "generate-plain-")
    lines = [json.loads(l) for l in
             (run_dir / "records" / "records.jsonl").read_text().splitlines()]
    assert "error" in lines[0] and lines[0]["image_ref"].endswith("00_broken.pgm")
    assert "story" in lines[1]


def test_non_styled_routes_to_finetuned_model(trained):
    tmp, config_path, cfg = trained
    assert main(["--config", str(config_path), "generate", "--style", "non-styled",
                 "--images", str(tmp / "images")]) == 0
    (run_dir,) = run_dirs(cfg, "generate-non-styled-")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["model"]["mode"] == "full_finetune"
    assert manifest["model"]["style"] == "non-styled"


def test_generate_missing_adapter_exit_2(trained, tmp_path, monkeypatch, capsys):
    from ppst import cli

    def never(*args, **kwargs):
        raise AssertionError("the base LM was loaded for a style without an adapter")

    monkeypatch.setattr(cli, "ensure_base_lm", never)
    tmp, _, cfg = trained
    cfg = json.loads(json.dumps(cfg))      # "teen" configured, its adapter never trained
    cfg["adapters"]["styles"].append("teen")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    assert main(["--config", str(config_path), "generate", "--style", "teen",
                 "--images", str(tmp / "images")]) == 2
    assert "ppst train-adapter --style teen" in capsys.readouterr().err


@pytest.mark.parametrize("style", ["horror", "a/../../../x"])
def test_generate_unknown_style_exits_2_before_loading(trained, monkeypatch, capsys,
                                                       style):
    from ppst import cli

    def never(*args, **kwargs):
        raise AssertionError("the base LM was loaded for an unknown style")

    monkeypatch.setattr(cli, "ensure_base_lm", never)
    tmp, config_path, cfg = trained
    before = sorted(p.name for p in Path(cfg["artifacts_dir"]).iterdir())
    assert main(["--config", str(config_path), "generate", "--style", style,
                 "--images", str(tmp / "images")]) == 2
    err = capsys.readouterr().err
    assert f"unknown style {style!r}" in err
    assert "['romance', 'action', 'non-styled', 'plain']" in err
    assert sorted(p.name for p in Path(cfg["artifacts_dir"]).iterdir()) == before


def test_evaluate_identity_records_score_100(trained, tmp_path, capsys):
    tmp, config_path, cfg = trained
    pairs_path = tmp / "captions_in.jsonl"
    gold = [json.loads(l) for l in pairs_path.read_text().splitlines()]
    records_path = tmp_path / "records.jsonl"
    with open(records_path, "w") as fh:
        for g in gold[:5]:
            fh.write(json.dumps({"image_ref": g["image_ref"], "style": "plain",
                                 "story": g["caption"]}) + "\n")
    assert main(["--config", str(config_path), "evaluate",
                 "--records", str(records_path), "--gold", str(pairs_path)]) == 0
    (run_dir,) = run_dirs(cfg, "evaluate-")
    lines = [json.loads(l) for l in
             (run_dir / "reports" / "report.jsonl").read_text().splitlines()]
    items = [l for l in lines if l["kind"] == "item"]
    corpus = [l for l in lines if l["kind"] == "corpus"][0]
    assert len(items) == 5                                  # one row per record
    assert corpus["metrics"]["ROUGE-L"] == pytest.approx(100.0)
    assert corpus["metrics"]["ChrF++"] == pytest.approx(100.0)
    assert corpus["metrics"]["CLIPScore"] > 0
    assert set(corpus["unavailable"]) == {"MoverScore", "BERTScore", "BLEURT",
                                          "BARTScore"}
    table = (run_dir / "reports" / "report.txt").read_text()
    header = table.splitlines()[0]
    assert header.index("ROUGE-L") < header.index("ChrF++") < header.index("CLIPScore")


def test_evaluate_without_matching_gold_exit_2(trained, tmp_path):
    _, config_path, _ = trained
    records_path = tmp_path / "records.jsonl"
    records_path.write_text(json.dumps({"image_ref": "ghost", "story": "x"}) + "\n")
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(json.dumps({"image_ref": "other", "caption": "y",
                                     "split": "train"}) + "\n")
    assert main(["--config", str(config_path), "evaluate",
                 "--records", str(records_path), "--gold", str(gold_path)]) == 2


def test_evaluate_uses_scorer_endpoint_from_environment(trained, tmp_path,
                                                        monkeypatch):
    from test_metrics import StubScorer
    tmp, config_path, cfg = trained
    pairs_path = tmp / "captions_in.jsonl"
    gold = [json.loads(l) for l in pairs_path.read_text().splitlines()]
    records_path = tmp_path / "records.jsonl"
    with open(records_path, "w") as fh:
        for g in gold[:3]:
            fh.write(json.dumps({"image_ref": g["image_ref"], "style": "plain",
                                 "story": g["caption"]}) + "\n")
    scorer = StubScorer(score=0.42)
    monkeypatch.setenv("PPST_SCORER_ENDPOINT", scorer.endpoint)
    try:
        assert main(["--config", str(config_path), "evaluate",
                     "--records", str(records_path), "--gold", str(pairs_path)]) == 0
    finally:
        scorer.close()
    eval_dirs = run_dirs(cfg, "evaluate-")
    lines = [json.loads(l) for d in eval_dirs
             for l in (d / "reports" / "report.jsonl").read_text().splitlines()]
    corpus = [l for l in lines if l["kind"] == "corpus"
              and "BERTScore" in l["metrics"]]
    assert corpus, "external metrics never landed in any corpus row"
    assert corpus[0]["metrics"]["BERTScore"] == pytest.approx(0.42)
    assert corpus[0]["unavailable"] == []


@pytest.mark.parametrize("timeout", [-1, 0, float("nan")])
def test_scorer_timeout_that_is_not_positive_exits_2(tmp_path, capsys, monkeypatch, timeout):
    _, evaluate = evaluate_one_image(tmp_path)
    cfg = dict(workspace_config(tmp_path), eval={"scorer_timeout": timeout})
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    monkeypatch.setenv("PPST_SCORER_ENDPOINT", "127.0.0.1:9")     # never contacted
    capsys.readouterr()
    assert main(evaluate) == 2
    err = capsys.readouterr().err
    assert (f"config key eval.scorer_timeout = {json.dumps(timeout)}: "
            "evaluate_run.scorer_timeout must be in (0, 86400] seconds\n") in err, err
    assert "Traceback" not in err, err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("weight", [-1, 0, float("nan"), float("inf")])
def test_clip_weight_that_is_not_positive_and_finite_exits_2(tmp_path, capsys, weight):
    _, evaluate = evaluate_one_image(tmp_path)
    cfg = dict(workspace_config(tmp_path), eval={"clip_weight": weight})
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(evaluate) == 2
    err = capsys.readouterr().err
    assert (f"config key eval.clip_weight = {json.dumps(weight)}: "
            "evaluate_run.clip_weight must be positive and finite\n") in err, err
    assert "Traceback" not in err, err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key", ("temperature", "repetition_penalty", "length_decay_factor"))
def test_nan_decode_value_exits_2_before_generate(trained, tmp_path, capsys, key):
    tmp, _, base = trained
    for value in (math.nan, math.inf, -math.inf):
        cfg = dict(base, decode=dict(base["decode"], **{key: value}))
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        before = run_dirs(cfg, "generate-")
        capsys.readouterr()
        assert main(["--config", str(tmp_path / "config.json"), "generate", "--style",
                     "plain", "--images", str(tmp / "images")]) == 2
        err = capsys.readouterr().err
        assert (f"config key decode.{key} = {json.dumps(value)}: DecodeConfig.{key} must be "
                "finite") in err, err
        assert "Traceback" not in err and run_dirs(cfg, "generate-") == before, err


def test_generate_error_line_is_skipped_by_evaluate(tmp_path, capsys):
    image, evaluate = evaluate_one_image(tmp_path)
    story = (tmp_path / "records.jsonl").read_text()
    error = {"image_ref": str(image), "error": "prefix contains non-finite entries"}
    (tmp_path / "records.jsonl").write_text(json.dumps(error) + "\n" + story)
    assert main(evaluate) == 0
    (run_dir,) = run_dirs(workspace_config(tmp_path), "evaluate-")
    *items, corpus = [json.loads(line) for line in
                      (run_dir / "reports" / "report.jsonl").read_text().splitlines()]
    assert [(i["item_id"], i["image_ref"]) for i in items] == [("item00000", str(image))]
    assert corpus["diagnostics"] == []


def evaluate_one_image(tmp_path, caption="a red cat on the table"):
    """(image, evaluate argv) for one record whose story is the image's caption,
    in a workspace with no upstream runs."""
    image = render_text_image(tmp_path / "img.pgm", caption)
    line = {"image_ref": str(image), "story": caption, "caption": caption}
    for name in ("records.jsonl", "gold.jsonl"):
        (tmp_path / name).write_text(json.dumps(line) + "\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workspace_config(tmp_path)))
    return image, ["--config", str(config_path), "evaluate", "--records",
                   str(tmp_path / "records.jsonl"), "--gold", str(tmp_path / "gold.jsonl")]


def evaluate_corpus_row(tmp_path):
    (run_dir,) = run_dirs(workspace_config(tmp_path), "evaluate-")
    return json.loads((run_dir / "reports" / "report.jsonl").read_text().splitlines()[-1])


def test_image_replaced_at_the_same_path_leaves_evaluate_not_up_to_date(tmp_path, capsys):
    image, evaluate = evaluate_one_image(tmp_path)
    assert main(evaluate) == 0
    before = evaluate_corpus_row(tmp_path)["metrics"]["CLIPScore"]
    render_text_image(image, "squad throttle crossfire recon patrol")
    capsys.readouterr()
    assert main(evaluate) == 0
    assert not skipped("evaluate", capsys.readouterr().out)
    assert evaluate_corpus_row(tmp_path)["metrics"]["CLIPScore"] != before
    assert main(evaluate) == 0
    assert skipped("evaluate", capsys.readouterr().out)


def test_deleted_image_is_a_clip_score_diagnostic(tmp_path, capsys):
    image, evaluate = evaluate_one_image(tmp_path)
    assert main(evaluate) == 0
    image.unlink()
    capsys.readouterr()
    assert main(evaluate) == 0
    assert not skipped("evaluate", capsys.readouterr().out)
    corpus = evaluate_corpus_row(tmp_path)
    assert "CLIPScore" not in corpus["metrics"] and "ROUGE-L" in corpus["metrics"]
    (error,) = corpus["diagnostics"]
    assert error["item_id"] == "item00000" and str(image) in error["clip_score_error"]


def test_story_with_lone_surrogate_is_a_clip_score_diagnostic(tmp_path, capsys):
    image, evaluate = evaluate_one_image(tmp_path)
    # the JSON escape \ud800 reads back as a lone surrogate, which has no UTF-8 form
    (tmp_path / "records.jsonl").write_text(json.dumps(
        {"image_ref": str(image), "story": "a red cat \ud800 on the table"}) + "\n")
    assert "\\ud800" in (tmp_path / "records.jsonl").read_text()
    capsys.readouterr()
    assert main(evaluate) == 0
    assert "Traceback" not in capsys.readouterr().err
    corpus = evaluate_corpus_row(tmp_path)
    assert {"ROUGE-L", "ChrF++"} <= set(corpus["metrics"])
    assert "CLIPScore" not in corpus["metrics"]
    (error,) = corpus["diagnostics"]
    assert error["item_id"] == "item00000" and "lone surrogate U+D800" in error["clip_score_error"]


def test_entry_point_runs_as_subprocess(tmp_path):
    import os
    import subprocess
    import sys
    # the child imports ppst from this checkout, as the test process does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    config_path, cfg = build_workspace(tmp_path)
    result = subprocess.run([sys.executable, "-m", "ppst.cli", "--config",
                             str(config_path), "build-corpus"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert "build-corpus:" in result.stdout
    missing = subprocess.run([sys.executable, "-m", "ppst.cli", "--config",
                              str(tmp_path / "nope.json"), "build-corpus"],
                             capture_output=True, text=True, env=env)
    assert missing.returncode == 2
