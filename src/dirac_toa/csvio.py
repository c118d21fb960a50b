"""CSV and manifest output: '#'-prefixed metadata headers, shortest
round-trip float formatting so re-runs reproduce files bit-identically."""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _cells(a: np.ndarray) -> Iterator[str]:
    """A column's cells, each as _fmt formats that element.  A float, int or
    bool value that repeats is formatted once: its cells are found by bit
    pattern, so -0.0 and 0.0, and NaNs of different payloads, stay apart."""
    if a.dtype.kind == "f" and a.dtype.itemsize <= 8:
        fmt, bits = repr, a.view(f"i{a.dtype.itemsize}")
    elif a.dtype.kind in "biu":
        fmt, bits = str, a
    else:
        return map(_fmt, a)
    _, first, index = np.unique(bits, return_index=True, return_inverse=True)
    if len(first) == len(a):
        return map(fmt, a.tolist())
    return map(list(map(fmt, a[first].tolist())).__getitem__, index.tolist())


_BLOCK_ROWS = 2048  # rows formatted and written at a time


def write_csv(
    path: Path,
    columns: Mapping[str, np.ndarray],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write '# key = value' metadata lines, a header and one row per index;
    rows are formatted and written a block at a time, so memory stays bounded
    however long the columns are."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("all columns must have equal length")
    with path.open("w") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key} = {_fmt(val)}\n")
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            cells = [_cells(a[start:start + _BLOCK_ROWS]) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def read_csv(path: Path):
    """Return (metadata dict, column dict of float arrays).  The '# key =
    value' lines before the header are the metadata; the rows after it are
    parsed by numpy.loadtxt."""
    meta, names = {}, []
    with Path(path).open() as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            elif line.strip():
                names = [c.strip() for c in line.split(",")]
                break
        rows = fh.read().splitlines()
    # loadtxt warns on input without rows
    data = (np.loadtxt(rows, delimiter=",", ndmin=2) if any(map(str.strip, rows))
            else np.zeros((0, len(names))))
    return meta, {n: data[:, j] for j, n in enumerate(names)}


def write_manifest(path: Path, sections: Mapping[str, Mapping[str, object]]) -> Path:
    """Flat key=value sections, loadable back as a run configuration."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for sec, kv in sections.items():
        cp[sec] = {k: _fmt(v) for k, v in kv.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        cp.write(fh)
    return path


def read_manifest(path: Path) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with Path(path).open() as fh:
        cp.read_file(fh)
    return {sec: dict(cp[sec]) for sec in cp.sections()}
