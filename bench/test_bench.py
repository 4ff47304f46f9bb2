"""Tests for the benchmark's own code.

    python3 -m pytest bench -q
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run_bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def make_span(sid, parent, start, end):
    s = tracer.Span(sid, f"s{sid}", parent, "op")
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        make_span(0, None, 0.0, 10.0),
        make_span(1, 0, 1.0, 4.0),
        make_span(2, 1, 2.0, 3.0),
        make_span(3, 0, 5.0, 9.0),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [make_span(0, None, 0.0, 10.0), make_span(1, 0, 1.0, 5.0),
             make_span(2, 0, 3.0, 7.0), make_span(3, 0, 9.0, 12.0)]
    assert tracer.self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_tracer_nests_spans_and_aggregates_per_run():
    t = tracer.Tracer()
    t.run_id = "a"
    with t.span("outer"):
        with t.span("inner") as s:
            s.counts["work"] = 3
        with t.span("inner") as s:
            s.counts["work"] = 4
    t.run_id = "b"
    with t.span("outer"):
        pass
    rows, own = t.aggregate(["a"])
    assert rows["outer"]["calls"] == 1 and rows["inner"]["calls"] == 2
    assert rows["inner"]["work"] == 7
    outer = t.spans[0]
    assert [s.parent for s in t.spans[1:3]] == [outer.sid, outer.sid]
    assert sum(own.values()) == pytest.approx(outer.duration, abs=1e-12)


def test_install_rejects_a_site_holding_another_function():
    import types

    a = types.SimpleNamespace(__name__="a", f=lambda: 1)
    b = types.SimpleNamespace(__name__="b", f=lambda: 2)
    with pytest.raises(RuntimeError):
        tracer.Tracer().install([("x.f", [(a, "f"), (b, "f")], None)])


def test_install_and_uninstall_restore_every_site():
    import symreg

    before = {(m.__name__, a): getattr(m, a)
              for _, sites, _ in tracer.symreg_targets(symreg) for m, a in sites}
    t = tracer.Tracer()
    t.install(tracer.symreg_targets(symreg))
    assert all(getattr(sys.modules[m], a) is not fn for (m, a), fn in before.items())
    t.uninstall()
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in before.items())


def test_metric_names_and_units_follow_the_rule_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m, u, b) for m, u, b in run_bench.END_TO_END]
    layer = [(f"{s}.{f}", u, b) for s, f, u, b in run_bench.PER_LAYER]
    for name, unit, better in e2e + layer:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == e2e
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(run_bench.WORKLOAD_NAMES)
    assert len({name for name, _, _ in e2e + layer}) == len(e2e + layer)


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", run_bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_runs_the_output_checks(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = [m for m, _, _ in run_bench.END_TO_END] if trace == "0" else \
        [f"{s}.{f}" for s, f, _, _ in run_bench.PER_LAYER]
    assert list(result["metrics"]) == expected
    if workload == "cli_logit_sym" and trace == "1":
        assert result["metrics"]["glm.fit_glm_lasso.calls"]["value"] == 0
    if trace == "0":
        record = json.loads(next(line for line in proc.stdout.splitlines()
                                 if line.startswith("# result "))[len("# result "):])
        ref = statistics.median(op["ref_s"] for op in record["operations"])
        wall = record["metrics"]["wall_s"]["value"]
        assert result["metrics"]["wall_rel"]["value"] == pytest.approx(wall / ref)


def test_cli_output_checks_catch_broken_outputs(tmp_path):
    w = workloads.CliPipelineSparse(5, workloads.TINY["cli_pipeline_sparse"], tmp_path)
    inp = w.build(0)
    out = tmp_path / "fit"
    code = w.run(inp, out)
    assert w.inspect(inp, code, out)[0] == []

    coef = out / "coef_full.csv"
    rows = coef.read_text().splitlines()
    cells = rows[0].split(",")
    cells[1] = repr(float(cells[1]) + 1.0)
    coef.write_text("\n".join([",".join(cells)] + rows[1:]) + "\n")
    trace = out / "trace.csv"
    lines = trace.read_text().splitlines()
    lines.append(f"{len(lines) - 1},1e9")
    trace.write_text("\n".join(lines) + "\n")
    failed, _ = w.inspect(inp, code, out)
    assert len(failed) == 3  # increasing trace, asymmetric coef, stale metrics.json


def test_an_exit_code_other_than_0_or_4_is_a_failed_operation(tmp_path):
    w = workloads.CliPipelineSparse(5, workloads.TINY["cli_pipeline_sparse"], tmp_path)
    with pytest.raises(workloads.OperationFailed):
        w.run((tmp_path / "missing", 0), tmp_path / "fit")


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "cli_logit_sym", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
