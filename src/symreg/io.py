# Everything symreg puts on disk: the plain-text dataset directory format,
# the CLI's output files and run manifests. Every file is written by
# write_text (UTF-8, LF line endings, one write), as comma-joined rows by
# write_rows, or as JSON by write_json (indent 2, sorted keys, trailing
# newline).
#
# A dataset directory holds:
#   subjects.csv    header id,y,z1..z{p0}: the covariates are the columns
#                   z1, z2, ... up to the first missing number, and every
#                   other column (e.g. a strata label) is kept as text for
#                   lookup; UTF-8, comma separated, '.' decimal, LF endings
#   matrices/<id>.csv   one p x p comma-separated numeric grid per subject
#   meta.json       optional; a JSON object with family and p
#
# Floats are written with repr(), the shortest decimal string that round-trips
# to the same double, so re-reading a file reproduces values exactly.

import csv
import json
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .glm import GAUSSIAN, Family
from .solvers import Dataset
from .simulate import RNG_ALGORITHM

ARTIFACT_VERSION = "0.1.0"
SYMMETRY_INGEST_TOL = 1e-8


class DataFormatError(ValueError):
    pass


def fmt(x):
    return repr(float(x))


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_rows(path, rows):
    """One line per row of string cells, joined by commas."""
    write_text(path, "".join(",".join(row) + "\n" for row in rows))


def write_json(path, obj):
    write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n")


@lru_cache(maxsize=None)
def _upper_indices(p):
    """np.triu_indices(p): the upper triangle, diagonal included, row by row."""
    iu, ju = np.triu_indices(p)
    iu.flags.writeable = ju.flags.writeable = False  # one copy for every caller
    return iu, ju


def write_matrix_csv(path, m):
    """One row of fmt'd entries per matrix row.

    A bitwise symmetric matrix has the repr of each entry pair made once and
    mirrored. Any other matrix, -0.0 against 0.0 included, has the repr of
    every entry made on its own. The bytes are the same either way.
    """
    m = np.asarray(m, dtype=float)
    bits = m.view(np.uint64)
    if not np.array_equal(bits, bits.T):
        # repr of the Python floats from tolist() is fmt of each entry
        write_rows(path, (map(repr, row) for row in m.tolist()))
        return
    iu, ju = _upper_indices(m.shape[0])
    cells = np.empty(m.shape, dtype=object)
    cells[iu, ju] = cells[ju, iu] = list(map(repr, m[iu, ju].tolist()))
    write_rows(path, cells.tolist())


def _read_matrix(path):
    """A matrix file's values, and the (rows, cols) of the cells below the
    diagonal whose text differs from that of their mirror above it.

    Each entry pair is parsed once, above the diagonal; a cell below it is
    parsed only where its text differs. Equal text is the same double, so
    the values equal those of a parse of every token.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in map(str.strip, fh) if line]
        p = len(rows)
        square = p > 0 and all(len(row) == p for row in rows)
        if square:
            # token k of `upper` is cell (i, j), j >= i; of `mirror`, cell (j, i)
            upper = [tok for i, row in enumerate(rows) for tok in row[i:]]
            mirror = [tok for i, col in enumerate(zip(*rows)) for tok in col[i:]]
            values = list(map(float, upper))
            differ = [] if mirror == upper else [
                k for k, tok in enumerate(mirror) if tok != upper[k]]
            differ_values = [float(mirror[k]) for k in differ]
    except ValueError as exc:
        raise DataFormatError(f"non-numeric entry in matrix file {path}: {exc}")
    if not square:
        raise DataFormatError(f"matrix file {path} is not a square grid")
    iu, ju = _upper_indices(p)
    m = np.empty((p, p))
    m[iu, ju] = m[ju, iu] = values
    lower = (ju[differ], iu[differ])
    m[lower] = differ_values
    return m, lower


def read_matrix_csv(path):
    return _read_matrix(path)[0]


def write_dataset(data, outdir):
    """Write subjects.csv, matrices/ and meta.json for one Dataset."""
    outdir = Path(outdir)
    (outdir / "matrices").mkdir(parents=True, exist_ok=True)
    n, p0 = data.n, data.p0
    ids = [f"{i:06d}" for i in range(1, n + 1)]
    header = ["id", "y"] + [f"z{j}" for j in range(1, p0 + 1)]
    write_rows(outdir / "subjects.csv", [header] + [
        [ids[i], fmt(data.y[i])] + [fmt(v) for v in data.Z[i]] for i in range(n)
    ])
    for i in range(n):
        write_matrix_csv(outdir / "matrices" / f"{ids[i]}.csv", data.X[i])
    write_json(outdir / "meta.json",
               {"family": data.family.name, "p": int(data.p), "p0": int(p0)})


def read_dataset(path, log_response=False):
    """Load a dataset directory; returns (Dataset, extra_columns dict).

    Matrices asymmetric beyond 1e-8 are rejected; smaller asymmetries are
    symmetrized, and Dataset.meta["warnings"] gets one line that counts them.
    Dataset itself rejects a bernoulli response outside {0, 1}. Each id of
    subjects.csv names one file matrices/<id>.csv and appears once.
    """
    path = Path(path)
    subjects = path / "subjects.csv"
    if not subjects.is_file():
        raise DataFormatError(f"missing {subjects}")
    with open(subjects, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["id", "y"]:
            raise DataFormatError(f"{subjects} must start with columns id,y")
        p0 = 0
        while f"z{p0 + 1}" in header:
            p0 += 1
        z_cols = [header.index(f"z{k}") for k in range(1, p0 + 1)]
        extra_cols = [
            j for j in range(2, len(header)) if j not in z_cols
        ]
        ids, ys, zs, extras = [], [], [], {header[j]: [] for j in extra_cols}
        seen = set()
        for row in reader:
            if not row:
                continue
            if len(row) < len(header):
                raise DataFormatError(f"line {reader.line_num} of {subjects} has "
                                      f"{len(row)} of {len(header)} columns")
            # an id names a file inside matrices/, never a path out of it
            if row[0] in ("", ".", "..") or "/" in row[0] or "\\" in row[0]:
                raise DataFormatError(f"line {reader.line_num} of {subjects} has "
                                      f"invalid id {row[0]!r}")
            if row[0] in seen:
                raise DataFormatError(f"line {reader.line_num} of {subjects} "
                                      f"repeats id {row[0]!r}")
            seen.add(row[0])
            ids.append(row[0])
            try:
                ys.append(float(row[1]))
                zs.append([float(row[j]) for j in z_cols])
            except ValueError as exc:
                raise DataFormatError(f"non-numeric value in {subjects}: {exc}")
            for j in extra_cols:
                extras[header[j]].append(row[j])
    if not ids:
        raise DataFormatError(f"{subjects} lists no subjects")

    y = np.asarray(ys)
    if log_response:
        if np.any(y <= 0):
            raise DataFormatError("--log-response requires strictly positive y")
        y = np.log(y)
    Z = np.asarray(zs) if zs and zs[0] else np.zeros((len(ids), 0))
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(Z))):
        raise DataFormatError(f"{subjects} holds a non-finite value")

    family = GAUSSIAN
    meta_path = path / "meta.json"
    if meta_path.is_file():
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise DataFormatError(f"{meta_path} must hold a JSON object")
        try:
            family = Family(meta.get("family", "gaussian"))
        except ValueError as exc:
            raise DataFormatError(f"{meta_path}: {exc}")

    asyms = []
    mats = []
    p = None
    for sid in ids:
        mpath = path / "matrices" / f"{sid}.csv"
        if not mpath.is_file():
            raise DataFormatError(f"missing matrix file {mpath}")
        m, lower = _read_matrix(mpath)
        if not np.all(np.isfinite(m)):
            raise DataFormatError(f"matrix file {mpath} holds a non-finite value")
        if p is None:
            p = m.shape[0]
        elif m.shape[0] != p:
            raise DataFormatError(f"matrix file {mpath} has wrong dimensions")
        # only cells whose text differs from their mirror can differ in value
        asym = float(np.max(np.abs(m[lower] - m.T[lower]), initial=0.0))
        if asym > SYMMETRY_INGEST_TOL:
            raise DataFormatError(
                f"matrix file {mpath} asymmetric beyond {SYMMETRY_INGEST_TOL:g}"
            )
        if asym > 0:
            m = (m + m.T) / 2.0
            asyms.append(asym)
        mats.append(m)

    warnings = [f"symmetrized {len(asyms)} of {len(ids)} matrices "
                f"(max asymmetry {max(asyms):.3e})"] if asyms else []
    data = Dataset(y, Z, np.stack(mats), family, {"warnings": warnings})
    return data, extras


# environment variables that set BLAS threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(outdir, command, config, inputs, seed, duration, argv):
    """Single manifest per output directory: enough to re-run the job, and the
    numeric environment (numpy, BLAS, thread settings) it ran in."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    write_json(Path(outdir) / "manifest.json", {
        "argv": argv,
        "command": command,
        "config": config,
        "duration_seconds": duration,
        "environment": {
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        },
        "inputs": [str(i) for i in inputs],
        "output_dir": str(outdir),
        "rng": {"algorithm": RNG_ALGORITHM, "seed": seed},
        "version": ARTIFACT_VERSION,
    })
