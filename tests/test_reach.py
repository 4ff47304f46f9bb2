# Every function and method of src/symreg is reached by some CLI command, or
# is on the short list below with its reason: the runtime package holds no
# code that only tests call. The check runs every command in-process under a
# sys.setprofile hook and compares the code objects it saw called with every
# function and method compiled from the package's source files.

import inspect
import sys
from pathlib import Path

import symreg
from symreg.cli import main

# module name of each source file, keyed as the code objects name their file
MODULES = {str(path): path.stem for path in Path(symreg.__file__).parent.glob("*.py")}

# public names that no CLI command calls, each kept for a named reader
UNREACHED = {
    "evaluate.worker_count",   # the benchmark reads it
    "solvers.Dataset.x_rows",  # the benchmark reads it
    "io.read_matrix_csv",      # public; bench/workloads.py reads matrices with it
    "solvers.objective",       # public; the benchmark's tracer wraps it
}


def _functions(code, module):
    """module.qualname of every function and method compiled into code."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield f"{module}.{const.co_qualname}"
            yield from _functions(const, module)


def _all_functions():
    names = set()
    for path, module in MODULES.items():
        code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
        names.update(_functions(code, module))
    return names


def _commands(tmp):
    """Every CLI command at small sizes: simulate in both families; fit with
    every estimator at rho 0 and 0.5 on each; cv; replicate."""
    caps = ["--max-outer-iters", "10"]
    for family in ("gaussian", "bernoulli"):
        data = tmp / family
        yield ["simulate", "--shape", "cross", "--p", "16", "--n", "60", "--p0", "2",
               "--family", family, "--out", data]
        for estimator in ("cp", "sym_cp", "sym_tensor", "pipeline"):
            for rho in ("0", "0.5"):
                yield ["fit", data, "--estimator", estimator, "--rank", "2",
                       "--rho", rho, *caps, "--out", tmp / f"fit_{family}_{estimator}_{rho}"]
    yield ["cv", tmp / "gaussian", "--rho-grid", "0,0.5", "--rank-grid", "1",
           "--k", "2", *caps, "--out", tmp / "cv"]
    yield ["replicate", "--shape", "cross", "--p", "16", "--n-list", "40",
           "--replications", "1", "--rank", "2", *caps, "--out", tmp / "rep"]


def test_every_function_is_reached_by_a_command(tmp_path):
    called = set()

    def hook(frame, event, arg):
        module = MODULES.get(frame.f_code.co_filename)
        if event == "call" and module:
            called.add(f"{module}.{frame.f_code.co_qualname}")

    # a cached function is called only on a miss, so earlier tests' hits
    # must not hide it
    for name, module in list(sys.modules.items()):
        if name.startswith("symreg."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes = [main([str(a) for a in argv]) for argv in _commands(tmp_path)]
    finally:
        sys.setprofile(previous)
    assert all(code in (0, 4) for code in codes), codes
    assert sorted(_all_functions() - called) == sorted(UNREACHED)
