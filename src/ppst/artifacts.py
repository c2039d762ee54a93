"""Checkpoint tensor storage, content fingerprints, run manifests and stages.

Tensor files hold little-endian float32 data back to back; a JSON shape index
maps each tensor name to its shape and byte offset. Fingerprints are sha256
over that same canonical float32 encoding, so a fingerprint survives a
save/load round trip. A `Stage` owns one run directory: its name, its `flock`,
its up-to-date check, and a commit that writes the manifest last.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, ConfigurationError, InputError, PpstError, TrainingDiverged

TENSOR_FILE = "tensors.bin"
INDEX_FILE = "tensors.json"
MANIFEST_FILE = "manifest.json"
LOCK_FILE = ".lock"
STAGING_DIR = ".staging"

_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def save_tensors(directory, arrays):
    """Write {name: array} as float32 LE + shape index into `directory`. A tensor
    that float32 cannot hold (a NaN, or beyond its range) is a TrainingDiverged."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = []
    offset = 0
    # a cast's overflow warning would repeat the error below
    with open(directory / TENSOR_FILE, "wb") as fh, np.errstate(over="ignore"):
        for name in sorted(arrays):
            data = np.ascontiguousarray(arrays[name], dtype="<f4")
            if not np.isfinite(data).all():
                raise TrainingDiverged(f"tensor {name!r} of checkpoint {directory} is not "
                                       "finite in float32")
            fh.write(data)
            index.append({"name": name, "shape": list(np.shape(arrays[name])),
                          "offset": offset, "nbytes": data.nbytes})
            offset += data.nbytes
    (directory / INDEX_FILE).write_text(json.dumps(index, indent=1))


def load_tensors(directory):
    """Inverse of save_tensors; returns {name: float64 array}. A tensor with a
    non-finite value is a CompatibilityError."""
    directory = Path(directory)
    index = read_json(directory / INDEX_FILE)
    path = directory / TENSOR_FILE
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CompatibilityError(f"{path} is unreadable: {exc}") from None
    out = {}
    try:
        for entry in index:
            start, nbytes, shape = entry["offset"], entry["nbytes"], entry["shape"]
            if start + nbytes > len(blob) or nbytes != 4 * int(np.prod(shape)):
                raise CompatibilityError(f"{path} is truncated or does not match "
                                         f"{INDEX_FILE} at tensor {entry['name']!r}")
            arr = np.frombuffer(blob[start: start + nbytes], dtype="<f4").reshape(shape)
            if not np.isfinite(arr).all():
                raise CompatibilityError(f"{path} holds a non-finite value in tensor "
                                         f"{entry['name']!r}")
            out[entry["name"]] = arr.astype(np.float64)
    except _MALFORMED as exc:
        raise CompatibilityError(f"{directory / INDEX_FILE} is malformed: {exc!r}") from None
    return out


def tensors_fingerprint(params):
    """sha256 over names, shapes and float32 bytes of {name: Param}, order-free."""
    h = hashlib.sha256()
    for name in sorted(params):
        value = params[name].value
        h.update(name.encode())
        h.update(str(np.shape(value)).encode())
        h.update(np.ascontiguousarray(value, dtype="<f4").tobytes())
    return h.hexdigest()


def strict_checksum(params):
    """sha256 over the raw bytes of {name: Param}; detects any bit-level change."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].value).tobytes())
    return h.hexdigest()


def fingerprint_file(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise InputError(f"{path} is unreadable: {exc}") from None


def fingerprint_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def read_json(path):
    """Parse a JSON file; an unreadable or corrupt file is an InputError naming it."""
    try:
        return json.loads(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise InputError(f"{path} is unreadable or corrupt: {exc}") from None


def read_text(path):
    """A UTF-8 text file; an unreadable or non-UTF-8 file is an InputError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is unreadable or not UTF-8: {exc}") from None


def read_jsonl(path, parse):
    """[parse(record) for each non-blank line], skipping records parsed to None.

    An unreadable file, a line that is not JSON, or one that `parse` rejects
    is an InputError naming the file (and line).
    """
    out = []
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"{path} is unreadable: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = parse(json.loads(line))
            except (KeyError, ValueError, TypeError, InputError) as exc:
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise InputError(f"{path}, line {lineno}: {detail}") from None
            if row is not None:
                out.append(row)
    return out


def require_utf8(**texts):
    """Raise an InputError naming the first of `texts` that holds a lone
    surrogate, as a JSON escape such as \\ud800 reads back: no UTF-8 file can
    hold it, so an output that copies it could not be written."""
    for name, text in texts.items():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            code = ord(exc.object[exc.start])
            raise InputError(f"{name} holds the lone surrogate U+{code:04X}, which has "
                             "no UTF-8 form") from None


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_manifest(directory, manifest):
    """Write manifest.json through a temp file, so a reader sees all of it or none.
    A failed write leaves no temp file, which would look like a manifest."""
    path = Path(directory) / MANIFEST_FILE
    tmp = path.with_name(MANIFEST_FILE + ".tmp")
    try:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_manifest(directory):
    path = Path(directory) / MANIFEST_FILE
    manifest = read_json(path) if path.exists() else None
    if manifest is not None and not isinstance(manifest, dict):
        raise InputError(f"{path} is not a JSON object")
    return manifest


def save_checkpoint(directory, kind, params, meta):
    """Store {name: Param} values and a manifest of `kind` plus the `meta` dict."""
    save_tensors(directory, {name: p.value for name, p in params.items()})
    write_manifest(directory, {"kind": kind, **meta})
    return Path(directory)


def load_checkpoint(directory, kind, build):
    """Model rebuilt from a checkpoint of `kind`.

    `build(manifest)` returns a freshly initialised model; its `params()` then
    receive the stored tensors. Another kind, a manifest `build` cannot read,
    or tensor names and shapes unlike the model's raise CompatibilityError.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest is None or manifest.get("kind") != kind:
        raise CompatibilityError(f"{directory} is not a {kind} checkpoint")
    try:
        model = build(manifest)
    except (*_MALFORMED, ConfigurationError) as exc:
        raise CompatibilityError(f"{directory / MANIFEST_FILE} does not describe a "
                                 f"{kind} model: {exc!r}") from None
    params = model.params()
    tensors = load_tensors(directory)
    if {n: t.shape for n, t in tensors.items()} != {n: p.value.shape for n, p in params.items()}:
        raise CompatibilityError(
            f"{directory / TENSOR_FILE}: stored tensors do not match the {kind} model")
    for name, param in params.items():
        param.value[...] = tensors[name]
    return model


@contextlib.contextmanager
def run_lock(directory):
    """Exclusive `flock` on `<run dir>/.lock`, guarding it against concurrent writers.
    The kernel releases it when its holder exits or is killed. The holder writes
    its pid into the file, for a refused writer to quote, and unlinks it on release."""
    path = Path(directory) / LOCK_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        fh = open(path, "a+b", buffering=0)
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.seek(0)
            owner = fh.read().decode(errors="replace").strip() or "?"
            fh.close()
            raise ConfigurationError(f"run directory {path.parent} is locked by another "
                                     f"process (pid {owner})") from None
        # hold the file at the path, not one a releaser unlinked before our flock
        with contextlib.suppress(FileNotFoundError):
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(path)):
                break
        fh.close()
    with fh:
        fh.truncate(0)
        fh.write(str(os.getpid()).encode())
        try:
            yield
        finally:
            path.unlink(missing_ok=True)    # while still locked: see the loop above


class Stage:
    """One stage's run directory `<root>/<name>-<hash10>` and how it is written.

    `identity` is the resolved config the stage depends on; its hash names the
    run dir and must match the manifest for a run to count. `command` is what
    a user runs to produce the stage, quoted when a downstream stage needs it.
    """

    def __init__(self, root, name, identity, command):
        self.name = name
        self.identity = identity
        self.command = command
        self.config_hash = fingerprint_json(identity)
        self.dir = Path(root) / f"{name}-{self.config_hash[:10]}"

    def _complete_manifest(self):
        manifest = read_manifest(self.dir)
        if (manifest is not None and manifest.get("status") == "complete"
                and manifest.get("config_hash") == self.config_hash):
            return manifest
        return None

    def skip(self, input_fingerprint, force=False):
        """True, with a note on stdout, if a complete run over these inputs exists."""
        manifest = None if force else self._complete_manifest()
        if manifest is None or manifest.get("input_fingerprint") != input_fingerprint:
            return False
        print(f"{self.name}: up to date ({self.dir})")
        return True

    def require(self):
        """The run dir of a complete run, for a downstream stage to read."""
        if self._complete_manifest() is None:
            raise InputError(f"no complete run in {self.dir}; run `{self.command}` first")
        return self.dir

    @contextlib.contextmanager
    def run(self, input_fingerprint):
        """Lock the run dir and yield (staging dir, manifest) for the stage's work.

        When the work raises, the staging dir is dropped and a previous complete
        run is left as it was. When it returns, the old manifest goes, the staged
        outputs replace the old ones and the manifest is written last: a failure
        during those moves leaves no complete run.
        """
        from . import __version__
        try:
            with run_lock(self.dir):
                staging = self.dir / STAGING_DIR
                shutil.rmtree(staging, ignore_errors=True)
                staging.mkdir()
                manifest = {"kind": self.name, "config_hash": self.config_hash,
                            "input_fingerprint": input_fingerprint,
                            "component_version": __version__,
                            "created_unix": time.time(), "status": "complete",
                            "resolved_config": self.identity}
                try:
                    yield staging, manifest
                    manifest["outputs"] = sorted(str(p.relative_to(staging))
                                                 for p in staging.rglob("*") if p.is_file())
                    (self.dir / MANIFEST_FILE).unlink(missing_ok=True)
                    for entry in staging.iterdir():
                        target = self.dir / entry.name
                        if target.is_dir():
                            shutil.rmtree(target)
                        os.replace(entry, target)
                    write_manifest(self.dir, manifest)
                except PpstError as exc:     # name the run dir, not the staging dir that goes
                    exc.args = (str(exc).replace(str(staging), str(self.dir)),)
                    raise
                finally:
                    shutil.rmtree(staging, ignore_errors=True)
        finally:
            with contextlib.suppress(OSError):
                self.dir.rmdir()         # empty only when no run ever committed here
