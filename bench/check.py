"""Reference outputs and the check of an op's output files against them.

A reference is the text of every file an op writes, normalised: a sidecar
loses its ``out_dir`` field (the path differs from run to run).  Values are
compared to the 10 significant digits the CSV prints.  ``n_evaluations`` is
a work count, not a result: it is returned, never compared.

References live in ``refs/<workload>.json.xz``:
``{"seeds": {seed: {op: {file: blob id}}}, "blobs": {blob id: text}}``.
Identical files share one blob, so seed-independent outputs are stored once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import os

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
WORK_COUNT_COLUMNS = ("n_evaluations",)


def normalise(name: str, text: str) -> str:
    """File text as stored in a reference."""
    if not name.endswith(".json"):
        return text
    payload = json.loads(text)
    payload.get("spec", {}).pop("out_dir", None)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def read_outputs(out_dir: str) -> dict:
    """Normalised text of every file an op wrote, by file name."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            files[name] = normalise(name, fh.read())
    return files


def _same(got: str, want: str) -> bool:
    """Same text, or the same number to 10 significant digits."""
    if got == want:
        return True
    try:
        return format(float(got), ".10g") == format(float(want), ".10g")
    except ValueError:
        return False


def _compare_csv(name: str, got: str, want: str, errors: list, work: dict) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if not got_rows or got_rows[0] != want_rows[0]:
        errors.append(f"{name}: header {got_rows[:1]} != {want_rows[0]}")
        return
    header = want_rows[0]
    if len(got_rows) != len(want_rows):
        errors.append(f"{name}: {len(got_rows) - 1} rows, want {len(want_rows) - 1}")
        return
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        if len(g_row) != len(w_row):
            errors.append(f"{name}: row {r}: {len(g_row)} cells, want {len(w_row)}")
            continue
        for col, g, w in zip(header, g_row, w_row):
            if col in WORK_COUNT_COLUMNS and g.isdigit():
                work[col] = work.get(col, 0) + int(g)
            elif not _same(g, w):
                errors.append(f"{name}: row {r} column {col!r}: got {g}, want {w}")


def _compare_json(name: str, path: str, got, want, errors: list) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                errors.append(f"{name}: key {path}{key} only in "
                              f"{'output' if key in got else 'reference'}")
            else:
                _compare_json(name, f"{path}{key}.", got[key], want[key], errors)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(name, f"{path}{i}.", g, w, errors)
    elif isinstance(got, (int, float)) and isinstance(want, (int, float)):
        if not _same(str(got), str(want)):
            errors.append(f"{name}: key {path.rstrip('.')}: got {got!r}, want {want!r}")
    elif got != want:
        errors.append(f"{name}: key {path.rstrip('.')}: got {got!r}, want {want!r}")


def compare(got: dict, want: dict) -> tuple[list, dict]:
    """Mismatches between an op's files and its reference, plus work counts.

    Each mismatch names the file and the row and column (CSV) or key
    (sidecar) that differs.
    """
    errors, work = [], {}
    for name in sorted(set(got) | set(want)):
        if name not in want:
            errors.append(f"{name}: not in the reference")
        elif name not in got:
            errors.append(f"{name}: not written")
        elif name.endswith(".csv"):
            _compare_csv(name, got[name], want[name], errors, work)
        elif got[name] != want[name]:
            _compare_json(name, "", json.loads(got[name]), json.loads(want[name]), errors)
    return errors, work


def load_refs(workload: str) -> dict:
    """``{seed: {op: {file: text}}}`` for one workload."""
    with lzma.open(os.path.join(REFS_DIR, f"{workload}.json.xz"), "rt", encoding="utf-8") as fh:
        store = json.load(fh)
    blobs = store["blobs"]
    return {int(seed): {op: {name: blobs[b] for name, b in files.items()}
                        for op, files in ops.items()}
            for seed, ops in store["seeds"].items()}


def save_refs(workload: str, refs: dict) -> str:
    """Store ``{seed: {op: {file: text}}}``, one blob per distinct text."""
    blobs, seeds = {}, {}
    for seed, ops in sorted(refs.items()):
        seeds[str(seed)] = {}
        for op, files in ops.items():
            seeds[str(seed)][op] = {}
            for name, text in files.items():
                blob = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
                blobs[blob] = text
                seeds[str(seed)][op][name] = blob
    os.makedirs(REFS_DIR, exist_ok=True)
    path = os.path.join(REFS_DIR, f"{workload}.json.xz")
    with lzma.open(path, "wt", encoding="utf-8", preset=9) as fh:
        json.dump({"seeds": seeds, "blobs": blobs}, fh, sort_keys=True)
    return path
