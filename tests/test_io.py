import numpy as np

from symreg.io import fmt, read_matrix_csv, write_matrix_csv


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
