import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_toa.csvio import _fmt, read_csv, write_csv


def _reference_write_csv(path, columns, metadata=None):
    """Row by row, one _fmt call per cell, joined into one string."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    lines = [f"# {key} = {_fmt(val)}" for key, val in (metadata or {}).items()]
    lines.append(",".join(names))
    for i in range(len(arrays[0])):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    path.write_text("\n".join(lines) + "\n")


def _assert_same_bytes(tmp_path, columns, metadata=None):
    write_csv(tmp_path / "streamed.csv", columns, metadata)
    _reference_write_csv(tmp_path / "reference.csv", columns, metadata)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


I64, U64 = np.iinfo(np.int64), np.iinfo(np.uint64)


def test_write_csv_matches_reference_on_extremes(tmp_path):
    # repeated values: -0.0 and 0.0, NaNs of two sign bits, and bools
    repeats = [-0.0, 0.0, np.nan, -np.nan, 0.1, 0.0, -0.0, np.nan]
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                       1.7976931348623157e308, 0.1, -2.5e-300, 1.0] + repeats)
    n = len(floats)
    columns = {
        "f64": floats,
        "f32": np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45, 3.4028235e38,
                         0.1, -2.5e-30, 1.0] + repeats, dtype=np.float32),
        "i64": np.resize(np.array([I64.min, I64.max, 0, -1], dtype=np.int64), n),
        "u64": np.resize(np.array([U64.max, 0, 1], dtype=np.uint64), n),
        "i8": np.arange(n, dtype=np.int8) - 5,
        "flag": np.arange(n) % 3 == 0,
        "c128": floats + 1j,
    }
    _assert_same_bytes(tmp_path, columns, {"p0": 0.75, "n": np.int64(3), "tag": "x"})
    _assert_same_bytes(tmp_path, {k: v[:0] for k, v in columns.items()}, {"n": 0})


def test_write_csv_matches_reference_across_blocks(tmp_path):
    rng = np.random.default_rng(4)
    n = 10_007  # spans several write blocks and ends in a partial one
    columns = {"index": np.arange(n), "tau": rng.exponential(size=n),
               "t": np.where(rng.random(n) < 0.5, np.nan, rng.normal(size=n)),
               "channel": rng.integers(-1, 2, size=n)}
    _assert_same_bytes(tmp_path, columns)
    _, back = read_csv(tmp_path / "streamed.csv")
    np.testing.assert_array_equal(back["tau"], columns["tau"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30),
       st.integers(I64.min, I64.max))
def test_write_csv_matches_reference_on_drawn_values(tmp_path_factory, values, k):
    tmp_path = tmp_path_factory.mktemp("csv")
    columns = {"x": np.array(values, dtype=float), "k": np.full(len(values), k, dtype=np.int64)}
    _assert_same_bytes(tmp_path, columns)


def test_write_csv_streams_in_bounded_memory(tmp_path):
    n = 100_000
    rng = np.random.default_rng(0)
    columns = {"index": np.arange(n), "detected": rng.integers(0, 2, n),
               "tau": rng.random(n), "t": rng.random(n) - 1.0,
               "x": np.where(rng.random(n) < 0.5, np.nan, 0.0),
               "channel": rng.integers(-1, 1, n)}
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", columns, {"n": n})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _reference_read_csv(path):
    """One Python float per cell: the metadata above the header, and the
    rows below it."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    meta = dict((k.strip(), v.strip()) for k, _, v in
                (line[1:].partition("=") for line in lines if line.startswith("#")))
    names, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    data = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(names))
    return meta, {n: data[:, j] for j, n in enumerate(names)}


@pytest.mark.parametrize("n_rows", [0, 1, 2, 3000])
@pytest.mark.parametrize("n_columns", [1, 3])
def test_read_csv_returns_the_written_columns(tmp_path, n_rows, n_columns):
    """Header-only, one-row and long files, with one column or several, read
    back bit for bit (NaN, -0.0 and subnormals included), as the per-cell
    float parse reads them, and without a warning."""
    rng = np.random.default_rng(n_rows)
    special = np.array([np.nan, -0.0, 5e-324, -np.inf, 1.7976931348623157e308, 0.1])
    values = np.where(rng.random(n_rows) < 0.2, rng.choice(special, n_rows),
                      rng.normal(size=n_rows) * 10.0 ** rng.integers(-300, 300, n_rows))
    columns = {"tau": values, "index": np.arange(n_rows), "flag": (values > 0).astype(int)}
    written = write_csv(tmp_path / "f.csv", dict(list(columns.items())[:n_columns]),
                        {"p0": 0.75, "tag": "a = b"})
    meta, back = read_csv(written)
    ref_meta, ref = _reference_read_csv(written)
    assert meta == ref_meta == {"p0": "0.75", "tag": "a = b"}
    assert list(back) == list(ref) == list(columns)[:n_columns]
    for name, col in back.items():
        assert col.dtype == np.float64 and col.shape == (n_rows,)
        np.testing.assert_array_equal(col.view(np.int64), ref[name].view(np.int64))
        np.testing.assert_array_equal(col, columns[name])
