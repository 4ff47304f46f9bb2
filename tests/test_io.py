import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import Dataset
from symreg.io import (
    SYMMETRY_INGEST_TOL,
    DataFormatError,
    fmt,
    read_dataset,
    read_matrix_csv,
    write_dataset,
    write_matrix_csv,
)


def test_write_matrix_csv_bytes_match_fmt(tmp_path):
    m = np.array(
        [
            [-0.0, 0.0, 5e-324, -2.2250738585072014e-308],
            [1e300, -1.7976931348623157e308, 3.0, -7.0],
            [0.1, 1 / 3, 123456789.0, 2.0**-1074 * 3],
            [1e-7, 12345678901234567890.0, -1.5, 1e16],
        ]
    )
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    expected = "".join(",".join(fmt(v) for v in row) + "\n" for row in m)
    assert path.read_bytes() == expected.encode("utf-8")
    assert np.array_equal(read_matrix_csv(path), m)
    assert str(read_matrix_csv(path)[0, 0]) == "-0.0"


def test_write_matrix_csv_integer_input(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[1, -2], [-2, 0]]))
    assert path.read_bytes() == b"1.0,-2.0\n-2.0,0.0\n"


def test_write_matrix_csv_signed_zeros_keep_their_own_repr(tmp_path):
    # -0.0 == 0.0, so m equals its transpose, but not bit for bit: each cell
    # is written from its own value, not mirrored from the other
    m = np.array([[1.0, -0.0, 0.5], [0.0, 2.0, 0.0], [0.5, -0.0, 3.0]])
    assert np.array_equal(m, m.T)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_bytes() == b"1.0,-0.0,0.5\n0.0,2.0,0.0\n0.5,-0.0,3.0\n"
    assert read_matrix_csv(path).tobytes() == m.tobytes()


def test_write_matrix_csv_symmetric_bytes_match_fmt(tmp_path, rng):
    a = rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-300, 300, (7, 7))
    m = (a + a.T) / 2.0
    m[0, 1] = m[1, 0] = -0.0
    m[2, 3] = m[3, 2] = float("nan")
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    expected = "".join(",".join(fmt(v) for v in row) + "\n" for row in m)
    assert path.read_bytes() == expected.encode("utf-8")


def _one_matrix_dataset(root, text):
    """A dataset directory of one subject whose matrix file holds `text`."""
    (root / "matrices").mkdir()
    (root / "subjects.csv").write_text("id,y\ns1,0.5\n", encoding="utf-8")
    (root / "matrices" / "s1.csv").write_text(text, encoding="utf-8")
    return root


def test_read_textual_variants_are_exactly_symmetric(tmp_path):
    # mirrored tokens differ as text but not as doubles: no warning, and each
    # cell holds its own parse, the -0 below the diagonal included
    ds = _one_matrix_dataset(tmp_path, "1e0,0.5,0\n0.50,1.0,0.25\n-0,2.5e-1,1\n")
    data, _ = read_dataset(ds)
    assert data.meta["warnings"] == []
    expected = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [-0.0, 0.25, 1.0]])
    assert data.X[0].tobytes() == expected.tobytes()


def test_read_lower_only_change_warns_with_its_asymmetry(tmp_path, rng):
    a = rng.standard_normal((2, 6, 6))
    X = (a + a.transpose(0, 2, 1)) / 2.0
    write_dataset(Dataset(np.zeros(2), np.zeros((2, 0)), X), tmp_path)
    victim = tmp_path / "matrices" / "000002.csv"
    m = read_matrix_csv(victim)
    m[4, 1] += 1e-9  # below the diagonal only; (1, 4) keeps its text
    write_matrix_csv(victim, m)
    asym = float(np.max(np.abs(m - m.T)))
    assert 0 < asym <= SYMMETRY_INGEST_TOL
    data, _ = read_dataset(tmp_path)
    assert data.meta["warnings"] == [
        f"symmetrized 1 of 2 matrices (max asymmetry {asym:.3e})"]
    assert data.X[1].tobytes() == ((m + m.T) / 2.0).tobytes()
    assert data.X[0].tobytes() == X[0].tobytes()


def _ingest_every_token(path):
    """The matrix file rules of read_dataset, with every token parsed and the
    asymmetry taken over the whole m - m': the reference for the reader that
    compares mirrored tokens as text. Returns (m, warnings)."""
    try:
        rows = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(tok) for tok in line.split(",")])
    except ValueError as exc:
        raise DataFormatError(f"non-numeric entry: {exc}")
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DataFormatError("not a square grid")
    m = np.array(rows)
    if not np.all(np.isfinite(m)):
        raise DataFormatError("non-finite value")
    asym = float(np.max(np.abs(m - m.T), initial=0.0))
    if asym > SYMMETRY_INGEST_TOL:
        raise DataFormatError("asymmetric")
    if asym > 0:
        return (m + m.T) / 2.0, [f"symmetrized 1 of 1 matrices (max asymmetry {asym:.3e})"]
    return m, []


# textual variants of one double, doubles 1e-9 and 1e-7 apart, and (one
# draw in eight) a non-finite value or a token that is not a number
NUMBERS = ["0", "-0", "0.0", "-0.0", "0.5", "0.50", "5e-1", " 0.5", "0.500000001",
           "0.5000001", "1", "1.0", "1e0", "1.000000001", "-2.25", "-2.250"]
NOT_FINITE_OR_NUMBER = ["nan", "NaN", "inf", "-inf", "Infinity", "abc", "", "1,5"]
TOKENS = st.sampled_from(NUMBERS * 4 + NOT_FINITE_OR_NUMBER)


@st.composite
def matrix_texts(draw):
    p = draw(st.integers(1, 4))
    rows = [[draw(TOKENS) for _ in range(p)] for _ in range(p)]
    for i in range(p):
        for j in range(i):
            if draw(st.booleans()):
                rows[i][j] = rows[j][i]  # mirrored text
    lines = [",".join(row) for row in rows]
    if draw(st.integers(0, 7)) == 0:
        k = draw(st.integers(0, p - 1))
        lines[k] = lines[k].rpartition(",")[0]  # one token short
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, p)), "  ")  # a blank line
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(matrix_texts())
def test_reader_matches_a_parse_of_every_token(text):
    with tempfile.TemporaryDirectory() as tmp:
        ds = _one_matrix_dataset(Path(tmp), text)
        try:
            expected = _ingest_every_token(ds / "matrices" / "s1.csv")
        except DataFormatError as exc:
            expected = type(exc)
        try:
            data, _ = read_dataset(ds)
            got = (data.X[0], data.meta["warnings"])
        except DataFormatError as exc:
            got = type(exc)
    if isinstance(expected, tuple):
        assert isinstance(got, tuple), (text, got)
        assert got[0].tobytes() == expected[0].tobytes() and got[1] == expected[1]
    else:
        assert got is expected, (text, got)
