"""Run-directory commit path: crashes, locks, swapped checkpoints, corrupt files.

Every test that damages or replaces an artifact works on its own copy of one
shared pipeline run.
"""

import contextlib
import errno
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from ppst import cli
from ppst.artifacts import run_lock
from ppst.errors import ConfigurationError
from ppst.lm import CausalTransformerLM
from test_cli import build_workspace, grow_action_book, run_dirs, skipped


def run(config_path, *argv):
    return cli.main(["--config", str(config_path), *argv])


def exits_2_naming(path, capsys, config_path, *argv):
    """Run one command; it must exit 2 with `path` in a one-line message."""
    capsys.readouterr()
    assert run(config_path, *argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err, err
    return err


def crash_on_call(monkeypatch, name, n):
    """Make `cli.<name>` raise a non-package error on its n-th call."""
    real = getattr(cli, name)
    calls = []

    def crashing(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise RuntimeError("process killed")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, crashing)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    config_path, cfg = build_workspace(tmp)
    for argv in (["build-corpus"], ["train-mapper"],
                 ["train-adapter", "--style", "romance"]):
        assert run(config_path, *argv) == 0
    return tmp, cfg


@pytest.fixture
def workspace(pipeline, tmp_path):
    """(config path, cfg, images dir) over a private copy of the pipeline's runs."""
    tmp, shared = pipeline
    cfg = dict(shared, artifacts_dir=str(tmp_path / "runs"))
    shutil.copytree(shared["artifacts_dir"], cfg["artifacts_dir"])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    return config_path, cfg, tmp / "images"


# ---------------------------------------------------------------------------
# staged commit


def test_crashed_force_rerun_keeps_previous_run(workspace, monkeypatch, capsys):
    config_path, cfg, images = workspace
    generate = ["generate", "--style", "romance", "--images", str(images)]
    assert run(config_path, *generate) == 0
    (run_dir,) = run_dirs(cfg, "generate-romance-")
    records = run_dir / "records" / "records.jsonl"
    first = records.read_bytes()

    crash_on_call(monkeypatch, "generate", 3)
    with pytest.raises(RuntimeError):
        run(config_path, "--force", *generate)
    monkeypatch.undo()

    capsys.readouterr()
    assert run(config_path, *generate) == 0
    assert "up to date" in capsys.readouterr().out
    assert records.read_bytes() == first
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "records"]


def test_crash_without_prior_run_leaves_no_manifest(workspace, monkeypatch, capsys):
    config_path, cfg, images = workspace
    crash_on_call(monkeypatch, "generate", 3)
    with pytest.raises(RuntimeError):
        run(config_path, "generate", "--style", "romance", "--images", str(images))
    assert run_dirs(cfg, "generate-romance-") == []

    (mapper_dir,) = run_dirs(cfg, "train-mapper-")
    shutil.rmtree(mapper_dir)
    crash_on_call(monkeypatch, "train_mapper", 1)
    with pytest.raises(RuntimeError):
        run(config_path, "train-mapper")
    assert not (mapper_dir / "manifest.json").exists()
    err = exits_2_naming(mapper_dir, capsys, config_path, "generate", "--style", "plain",
                         "--images", str(images))
    assert "run `ppst train-mapper` first" in err


def test_rejected_input_creates_no_run_dir(workspace, tmp_path):
    config_path, cfg, images = workspace
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"image_ref": "ghost", "story": "x"}) + "\n")
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"image_ref": "other", "caption": "y"}) + "\n")
    assert run(config_path, "evaluate", "--records", str(records),
               "--gold", str(gold)) == 2
    assert run(config_path, "generate", "--style", "teen", "--images", str(images)) == 2
    assert run_dirs(cfg, "evaluate-") == [] and run_dirs(cfg, "generate-") == []


def run_files(run_dir):
    """{relative path: bytes} of every file under a run dir."""
    return {str(f.relative_to(run_dir)): f.read_bytes()
            for f in sorted(run_dir.rglob("*")) if f.is_file()}


def is_complete(run_dir):
    manifest = run_dir / "manifest.json"
    return manifest.exists() and json.loads(manifest.read_text())["status"] == "complete"


def count_replaces(monkeypatch, fail_at=None):
    """Count `os.replace` calls; the `fail_at`-th one raises OSError instead."""
    real, calls = os.replace, []

    def replace(src, dst, **kwargs):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError(errno.EIO, "injected I/O error", str(dst))
        return real(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def sweep_commit_faults(run_dir, config_path, argv, old_is_up_to_date, monkeypatch, capsys,
                        tmp_path):
    """Fail each `os.replace` of the commit of `argv` in turn over the complete run
    in `run_dir`. Each failure exits 2 without a traceback and leaves either no
    complete manifest or the previous run, byte for byte and still up to date;
    never a complete manifest over mixed outputs, nor a stray manifest temp
    file. Returns the number of replaces."""
    old = run_files(run_dir)
    saved = tmp_path / "saved-run"
    shutil.copytree(run_dir, saved)
    calls = count_replaces(monkeypatch)
    assert run(config_path, *argv) == 0
    monkeypatch.undo()
    assert is_complete(run_dir) and run_files(run_dir) != old
    for k in range(1, len(calls) + 1):
        shutil.rmtree(run_dir)
        shutil.copytree(saved, run_dir)
        count_replaces(monkeypatch, fail_at=k)
        capsys.readouterr()
        assert run(config_path, *argv) == 2, k
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert "injected I/O error" in err and "Traceback" not in err, err
        assert not (run_dir / "manifest.json.tmp").exists(), k
        if is_complete(run_dir):
            assert run_files(run_dir) == old and old_is_up_to_date(), k
        assert run(config_path, *argv) == 0 and is_complete(run_dir), k
    return len(calls)


def test_failed_build_corpus_commit_keeps_previous_run_or_none(tmp_path, monkeypatch,
                                                               capsys):
    config_path, cfg = build_workspace(tmp_path)
    assert run(config_path, "build-corpus") == 0
    (run_dir,) = run_dirs(cfg, "build-corpus-")
    book = tmp_path / "books" / "Steel Convoy.txt"
    text = book.read_bytes()
    grow_action_book(tmp_path)

    def old_is_up_to_date():
        grown = book.read_bytes()
        book.write_bytes(text)
        capsys.readouterr()
        try:
            return run(config_path, "build-corpus") == 0 and \
                skipped("build-corpus", capsys.readouterr().out)
        finally:
            book.write_bytes(grown)

    # three outputs, then the manifest
    assert sweep_commit_faults(run_dir, config_path, ["build-corpus"], old_is_up_to_date,
                               monkeypatch, capsys, tmp_path) == 4


def test_failed_generate_commit_keeps_previous_run_or_none(workspace, tmp_path, monkeypatch,
                                                           capsys):
    config_path, cfg, images = workspace
    generate = ["generate", "--style", "romance", "--images", str(images)]
    assert run(config_path, *generate) == 0
    (run_dir,) = run_dirs(cfg, "generate-romance-")

    def old_is_up_to_date():
        capsys.readouterr()
        return run(config_path, *generate) == 0 and \
            skipped("generate", capsys.readouterr().out)

    # the records directory, then the manifest
    assert sweep_commit_faults(run_dir, config_path, ["--force", *generate],
                               old_is_up_to_date, monkeypatch, capsys, tmp_path) == 2


# ---------------------------------------------------------------------------
# locks


HOLD_LOCK = """
import sys, time
from ppst.artifacts import run_lock
with run_lock(sys.argv[1]):
    print("held", flush=True)
    time.sleep(300)
"""

# each holder creates a marker that only one process may have at a time
TAKE_TURNS = """
import os, sys, time
from ppst.artifacts import run_lock
from ppst.errors import ConfigurationError
run_dir, marker = sys.argv[1:]
held, deadline = 0, time.monotonic() + 60
while held < 20 and time.monotonic() < deadline:
    try:
        with run_lock(run_dir):
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            time.sleep(0.002)
            os.unlink(marker)
        held += 1
    except ConfigurationError:
        time.sleep(0.001)
sys.exit(0 if held == 20 else 3)
"""


@contextlib.contextmanager
def children(*argvs):
    """One `python -c` child per argv, with the package importable; each is
    killed and reaped on exit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    procs = []
    try:
        for argv in argvs:
            procs.append(subprocess.Popen([sys.executable, "-c", *argv], env=env,
                                          stdout=subprocess.PIPE, text=True))
        yield procs
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=60)


def exited_pid():
    with children(["pass"]) as (child,):
        child.wait(timeout=60)
    return child.pid


def test_stale_lock_of_exited_process_is_removed(tmp_path, capsys):
    pid = exited_pid()
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / ".lock").write_text(str(pid))
    with run_lock(tmp_path / "run"):
        assert (tmp_path / "run" / ".lock").read_text() == str(os.getpid())
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "run" / ".lock").exists()


def test_lock_of_running_process_blocks_stage(workspace, capsys):
    config_path, cfg, _ = workspace
    (run_dir,) = run_dirs(cfg, "build-corpus-")
    with children([HOLD_LOCK, str(run_dir)]) as (holder,):
        assert holder.stdout.readline() == "held\n"
        err = exits_2_naming(run_dir, capsys, config_path, "--force", "build-corpus")
        assert "locked" in err and f"pid {holder.pid}" in err
        assert (run_dir / ".lock").read_text() == str(holder.pid)
        with pytest.raises(ConfigurationError, match="locked"):
            with run_lock(run_dir):
                pass
        assert (run_dir / ".lock").read_text() == str(holder.pid)
        assert holder.poll() is None


def test_lock_file_naming_this_process_does_not_block_stage(workspace, capsys):
    config_path, cfg, _ = workspace
    (run_dir,) = run_dirs(cfg, "build-corpus-")
    (run_dir / ".lock").write_text(str(os.getpid()))
    assert run(config_path, "--force", "build-corpus") == 0
    assert not (run_dir / ".lock").exists()


def test_lock_of_killed_process_does_not_block_stage(workspace, capsys):
    config_path, cfg, _ = workspace
    (run_dir,) = run_dirs(cfg, "build-corpus-")
    with children([HOLD_LOCK, str(run_dir)]) as (holder,):
        assert holder.stdout.readline() == "held\n"
        os.kill(holder.pid, signal.SIGKILL)
        holder.wait(timeout=60)
    assert (run_dir / ".lock").read_text() == str(holder.pid)
    capsys.readouterr()
    assert run(config_path, "--force", "build-corpus") == 0
    assert capsys.readouterr().err == ""
    assert not (run_dir / ".lock").exists()


def test_lock_admits_one_holder_at_a_time(tmp_path):
    run_dir, marker = tmp_path / "run", tmp_path / "holder"
    run_dir.mkdir()
    (run_dir / ".lock").write_text(str(exited_pid()))
    with children(*[[TAKE_TURNS, str(run_dir), str(marker)]] * 3) as procs:
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0, 0]
    assert not marker.exists() and not (run_dir / ".lock").exists()


def test_lock_released_between_open_and_flock_is_taken_at_the_path(tmp_path, monkeypatch):
    """B opens `.lock`, then its holder A releases it (unlinking the file) before
    B's flock: B must end up holding a file at the path, not the unlinked one."""
    run_dir = tmp_path / "run"
    holder = run_lock(run_dir)
    holder.__enter__()
    real, calls = fcntl.flock, []

    def release_then_flock(fh, operation):
        calls.append(operation)
        if len(calls) == 1:
            holder.__exit__(None, None, None)
        return real(fh, operation)

    monkeypatch.setattr(fcntl, "flock", release_then_flock)
    with run_lock(run_dir):
        monkeypatch.undo()
        assert len(calls) == 2      # the unlinked file was dropped, the new one taken
        assert (run_dir / ".lock").read_text() == str(os.getpid())
        with pytest.raises(ConfigurationError, match="locked"):
            with run_lock(run_dir):
                pass
    assert not (run_dir / ".lock").exists()


# ---------------------------------------------------------------------------
# swapped or foreign checkpoints


def test_replaced_lm_checkpoint_is_not_up_to_date(workspace, capsys):
    config_path, cfg, _ = workspace
    (base_dir,) = run_dirs(cfg, "base-lm-")
    checkpoint = config_path.parent / "lm"
    shutil.copytree(base_dir / "checkpoints" / "lm", checkpoint)
    cfg["lm"] = dict(cfg["lm"], checkpoint=str(checkpoint))
    config_path.write_text(json.dumps(cfg))
    assert run(config_path, "train-mapper") == 0
    capsys.readouterr()
    assert run(config_path, "train-mapper") == 0
    assert "up to date" in capsys.readouterr().out

    lm = CausalTransformerLM.load(checkpoint)
    lm.head.b.value[0] += 1.0
    lm.save(checkpoint)
    assert run(config_path, "train-mapper") == 0
    assert "up to date" not in capsys.readouterr().out


def test_mapper_trained_on_another_lm_fails_generate(workspace, capsys):
    config_path, cfg, images = workspace
    (own,) = run_dirs(cfg, "train-mapper-")
    for argv in (["build-corpus"], ["train-mapper"]):
        assert run(config_path, "--seed", "8", *argv) == 0
    (other,) = set(run_dirs(cfg, "train-mapper-")) - {own}
    mapper = own / "checkpoints" / "mapper"
    shutil.rmtree(mapper)
    shutil.copytree(other / "checkpoints" / "mapper", mapper)
    for style in ("romance", "non-styled"):
        err = exits_2_naming(mapper, capsys, config_path, "generate", "--style", style,
                             "--images", str(images))
        assert "another base LM or encoder" in err


def test_adapter_checkpoint_in_place_of_the_mapper_fails_generate(workspace, capsys):
    config_path, cfg, images = workspace
    (mapper_dir,) = run_dirs(cfg, "train-mapper-")
    (adapter_dir,) = run_dirs(cfg, "train-adapter-romance-")
    mapper = mapper_dir / "checkpoints" / "mapper"
    shutil.rmtree(mapper)
    shutil.copytree(adapter_dir / "checkpoints" / "adapter", mapper)
    err = exits_2_naming(mapper, capsys, config_path, "generate", "--style", "plain",
                         "--images", str(images))
    assert "is not a prefix_mapper checkpoint" in err


def test_mapper_manifest_that_does_not_match_its_tensors_fails_generate(workspace, capsys):
    config_path, cfg, images = workspace
    (mapper_dir,) = run_dirs(cfg, "train-mapper-")
    manifest = mapper_dir / "checkpoints" / "mapper" / "manifest.json"
    entry = json.loads(manifest.read_text())
    entry["config"]["hidden_dim"] += 1
    manifest.write_text(json.dumps(entry))
    err = exits_2_naming(manifest.parent / "tensors.bin", capsys, config_path, "generate",
                         "--style", "plain", "--images", str(images))
    assert "stored tensors do not match the prefix_mapper model" in err


def test_training_that_changes_the_frozen_lm_exits_2(workspace, monkeypatch, capsys):
    config_path, cfg, _ = workspace
    real = cli.train_adapter

    def tamper(passages, lm, *args, **kwargs):
        out = real(passages, lm, *args, **kwargs)
        lm.head.b.value[0] += 1.0
        return out

    monkeypatch.setattr(cli, "train_adapter", tamper)
    (run_dir,) = run_dirs(cfg, "train-adapter-romance-")
    manifest = (run_dir / "manifest.json").read_bytes()
    capsys.readouterr()
    assert run(config_path, "--force", "train-adapter", "--style", "romance") == 2
    assert "frozen-LM contract violated" in capsys.readouterr().err
    assert (run_dir / "manifest.json").read_bytes() == manifest


# ---------------------------------------------------------------------------
# per-image errors and corrupt files


def test_any_package_error_on_one_image_becomes_an_error_record(workspace,
                                                                 monkeypatch):
    config_path, cfg, images = workspace
    first = str(sorted(images.glob("*.pgm"))[0])
    real = cli.generate

    def refuse_first(prefix, model, decode_cfg, image_ref):
        if image_ref == first:
            raise ConfigurationError("no viable token after masking")
        return real(prefix, model, decode_cfg, image_ref=image_ref)

    monkeypatch.setattr(cli, "generate", refuse_first)
    assert run(config_path, "generate", "--style", "plain", "--images", str(images)) == 0
    (run_dir,) = run_dirs(cfg, "generate-plain-")
    lines = [json.loads(l) for l in
             (run_dir / "records" / "records.jsonl").read_text().splitlines()]
    assert lines[0] == {"image_ref": first, "error": "no viable token after masking"}
    assert all("story" in line for line in lines[1:])


def test_corrupt_run_manifest_exits_2(workspace, capsys):
    config_path, cfg, images = workspace
    (mapper_dir,) = run_dirs(cfg, "train-mapper-")
    manifest = mapper_dir / "manifest.json"
    manifest.write_text(manifest.read_text()[:40])
    exits_2_naming(manifest, capsys, config_path, "generate", "--style", "plain",
                   "--images", str(images))


def test_truncated_tensors_exit_2(workspace, capsys):
    config_path, cfg, images = workspace
    (mapper_dir,) = run_dirs(cfg, "train-mapper-")
    tensors = mapper_dir / "checkpoints" / "mapper" / "tensors.bin"
    tensors.write_bytes(tensors.read_bytes()[:100])
    exits_2_naming(tensors, capsys, config_path, "generate", "--style", "plain",
                   "--images", str(images))


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("run_prefix, name, damage", [
    ("train-mapper-", "checkpoints/mapper/manifest.json", lambda m: _without(m, "config")),
    ("train-mapper-", "checkpoints/mapper/manifest.json",
     lambda m: dict(m, config=dict(m["config"], typo=1))),
    ("train-mapper-", "checkpoints/mapper/manifest.json",
     lambda m: dict(m, config=dict(m["config"], prefix_length=0))),
    ("train-mapper-", "checkpoints/mapper/manifest.json", lambda m: [m]),
    ("train-mapper-", "checkpoints/mapper/tensors.json", lambda index: {"tensors": index}),
    ("train-mapper-", "checkpoints/mapper/tensors.json",
     lambda index: [_without(e, "offset") for e in index]),
    ("base-lm-", "checkpoints/lm/vocab.json", lambda itos: {}),
    ("base-lm-", "checkpoints/lm/vocab.json", lambda itos: itos[:-1] + ["<pad>"]),
    ("base-lm-", "checkpoints/lm/vocab.json", lambda itos: itos[:-1] + [itos[-2]]),
    ("train-mapper-", "manifest.json", lambda m: [m]),
], ids=["manifest-no-config", "manifest-unknown-key", "manifest-bad-value", "manifest-list",
        "index-object", "index-no-offset", "vocab-object", "vocab-repeats-pad",
        "vocab-repeats-word", "run-manifest-list"])
def test_json_of_the_wrong_shape_exits_2(workspace, capsys, run_prefix, name, damage):
    config_path, cfg, images = workspace
    (run_dir,) = run_dirs(cfg, run_prefix)
    path = run_dir / name
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    exits_2_naming(path, capsys, config_path, "generate", "--style", "plain",
                   "--images", str(images))


@pytest.mark.parametrize("layout", ["missing", "only-a-directory-named-pgm"])
def test_bad_images_path_exits_2(workspace, tmp_path, capsys, layout):
    config_path, _, _ = workspace
    images = tmp_path / "images"
    if layout != "missing":
        (images / "x.pgm").mkdir(parents=True)
    err = exits_2_naming(images, capsys, config_path, "generate", "--style", "plain",
                         "--images", str(images))
    assert ("not found" if layout == "missing" else "no images found") in err


def test_book_that_is_a_directory_exits_2(tmp_path, capsys):
    config_path, _ = build_workspace(tmp_path)
    book = tmp_path / "books" / "Shelf.txt"
    book.mkdir()
    exits_2_naming(book, capsys, config_path, "build-corpus")


def test_artifacts_dir_under_a_file_exits_2(tmp_path, capsys):
    config_path, cfg = build_workspace(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg["artifacts_dir"] = str(blocker / "runs")
    config_path.write_text(json.dumps(cfg))
    exits_2_naming(blocker / "runs", capsys, config_path, "build-corpus")


def test_bad_records_line_exits_2(workspace, tmp_path, capsys):
    config_path, _, _ = workspace
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"image_ref": "a", "story": "x"}) + "\n{not json\n")
    exits_2_naming(f"{records}, line 2", capsys, config_path, "evaluate",
                   "--records", str(records), "--gold", str(records))


def test_bad_passage_line_exits_2(workspace, capsys):
    config_path, cfg, _ = workspace
    (corpus_dir,) = run_dirs(cfg, "build-corpus-")
    passages = corpus_dir / "passages.jsonl"
    n = len(passages.read_text().splitlines())
    with open(passages, "a") as fh:
        fh.write(json.dumps({"text": "too short", "word_count": 2, "genres": ["romance"],
                             "source_title": "x"}) + "\n")
    exits_2_naming(f"{passages}, line {n + 1}", capsys, config_path, "--force",
                   "train-adapter", "--style", "romance")


def test_bad_caption_line_exits_2(workspace, tmp_path, capsys):
    config_path, cfg, _ = workspace
    captions = tmp_path / "captions.jsonl"
    captions.write_text(json.dumps({"image_ref": "a", "caption": "a cat"}) + "\n"
                        + json.dumps({"image_ref": "b"}) + "\n")
    cfg["corpus"] = dict(cfg["corpus"], captions=str(captions))
    config_path.write_text(json.dumps(cfg))
    before = run_dirs(cfg, "build-corpus-")
    err = exits_2_naming(f"{captions}, line 2", capsys, config_path, "build-corpus")
    assert "missing field 'caption'" in err
    assert run_dirs(cfg, "build-corpus-") == before


RECORD = {"image_ref": "a.pgm", "story": "a cat sat", "style": "romance"}
CAPTION = {"image_ref": "a.pgm", "caption": "a cat"}
PASSAGE = {"text": " ".join(["dusk"] * 30), "word_count": 30, "genres": ["romance"],
           "source_title": "x"}


@pytest.mark.parametrize("target, bad", [
    ("records", dict(RECORD, story=5)),
    ("records", dict(RECORD, story=None)),
    ("records", dict(RECORD, story=["a", "cat"])),
    ("records", dict(RECORD, image_ref=["a.pgm"])),
    ("records", dict(RECORD, image_ref={"path": "a.pgm"})),
    ("records", []),
    ("gold", dict(CAPTION, caption=5)),
    ("gold", dict(CAPTION, image_ref=["a.pgm"])),
    ("captions", dict(CAPTION, caption=12345)),
    ("passages", dict(PASSAGE, text=5)),
    # a JSON escape of a lone surrogate reads back as a string with no UTF-8 form
    ("records", dict(RECORD, image_ref="a\ud800.pgm")),
    ("records", dict(RECORD, style="\udc80")),
    ("gold", dict(CAPTION, caption="a \ud800 cat")),
    ("captions", dict(CAPTION, caption="a \udfff cat")),
    ("passages", dict(PASSAGE, text=" ".join(["dusk"] * 29 + ["\ud800"]))),
], ids=["story-int", "story-null", "story-list", "image-ref-list", "image-ref-object",
        "record-list", "gold-caption-int", "gold-image-ref-list", "caption-int", "text-int",
        "image-ref-surrogate", "style-surrogate", "gold-caption-surrogate",
        "caption-surrogate", "text-surrogate"])
def test_field_of_the_wrong_type_exits_2(workspace, tmp_path, capsys, target, bad):
    """A JSONL line whose field has the wrong type, or holds a lone surrogate,
    exits 2 naming the line, and a bad captions file leaves no build-corpus run."""
    config_path, cfg, images = workspace
    if target in ("records", "gold"):
        files = {"records": [RECORD], "gold": [CAPTION]}
        files[target].append(bad)
        for name, rows in files.items():
            (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        path = tmp_path / f"{target}.jsonl"
        argv = ["evaluate", "--records", str(tmp_path / "records.jsonl"),
                "--gold", str(tmp_path / "gold.jsonl")]
    elif target == "captions":
        path = tmp_path / "captions.jsonl"
        path.write_text((images.parent / "captions_in.jsonl").read_text() + json.dumps(bad))
        cfg["corpus"] = dict(cfg["corpus"], captions=str(path))
        config_path.write_text(json.dumps(cfg))
        argv = ["build-corpus"]
    else:
        (corpus_dir,) = run_dirs(cfg, "build-corpus-")
        path = corpus_dir / "passages.jsonl"
        path.write_text(path.read_text() + json.dumps(bad) + "\n")
        argv = ["--force", "train-adapter", "--style", "romance"]
    before = run_dirs(cfg, "build-corpus-")
    line = len(path.read_text().splitlines())
    exits_2_naming(f"{path}, line {line}", capsys, config_path, *argv)
    assert run_dirs(cfg, "build-corpus-") == before


def test_records_path_that_is_a_directory_exits_2(workspace, tmp_path, capsys):
    config_path, _, _ = workspace
    records = tmp_path / "records"
    records.mkdir()
    exits_2_naming(records, capsys, config_path, "evaluate",
                   "--records", str(records), "--gold", str(records))


@pytest.mark.parametrize("bad_file", ["books/Letters at Dusk.txt", "books/catalog.tsv"])
def test_non_utf8_corpus_file_exits_2(tmp_path, capsys, bad_file):
    config_path, cfg = build_workspace(tmp_path)
    path = tmp_path / bad_file
    path.write_bytes(path.read_bytes() + "café\n".encode("latin-1"))
    exits_2_naming(path, capsys, config_path, "build-corpus")
    assert not (tmp_path / "runs").exists() or not run_dirs(cfg, "build-corpus-")
