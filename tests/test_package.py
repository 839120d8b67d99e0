"""The package's import layout, as its callers and the benchmark rely on it."""

from __future__ import annotations

import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent

MODULES = (
    "gaussgeom.algebra",
    "gaussgeom.cli",
    "gaussgeom.connections",
    "gaussgeom.exact",
    "gaussgeom.group",
    "gaussgeom.manifold",
    "gaussgeom.solver",
    "gaussgeom.tensors",
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=src_env(), check=False
    )


class TestImportSplit:
    def test_root_exports_only_the_version(self):
        import gaussgeom

        submodules = {module.rsplit(".", 1)[1] for module in MODULES}
        public = {name for name in vars(gaussgeom) if not name.startswith("_")}
        assert public <= submodules
        assert gaussgeom.__version__ == "0.1.0"

    @pytest.mark.parametrize(
        "module", ["gaussgeom", "gaussgeom.solver", "gaussgeom.group", "gaussgeom.cli"]
    )
    def test_exact_stack_loads_without_scipy(self, module):
        result = run_python(
            "-c", f"import sys, {module}; print('scipy' in sys.modules)"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_recheck_script_loads_without_scipy(self):
        # run the script's module body, then stop at its own --help exit
        script = ROOT / "scripts" / "recheck_certificate.py"
        code = (
            "import runpy, sys\n"
            f"sys.argv = [{str(script)!r}, '--help']\n"
            "try:\n"
            f"    runpy.run_path({str(script)!r}, run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code in (0, None), exc.code\n"
            "print('scipy' in sys.modules)\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "False"


class TestRecheckStandsAlone:
    """The recheck derives rows, row count and rank with its own code."""

    def test_recheck_never_loads_the_solver_or_runs_the_elimination(self, tmp_path):
        from gaussgeom.solver import verify_theorem

        certificate = tmp_path / "certificate_n2.json"
        certificate.write_text(verify_theorem(2).to_json())
        script = ROOT / "scripts" / "recheck_certificate.py"
        # every SparseEchelon method the package has is wrapped to count its
        # calls before the script's module body runs
        code = (
            "import json, runpy, sys\n"
            "from gaussgeom.exact import SparseEchelon\n"
            "calls = []\n"
            "for name in ('__init__', 'insert', 'kernel_basis'):\n"
            "    def counted(*args, _name=name, _method=getattr(SparseEchelon, name)):\n"
            "        calls.append(_name)\n"
            "        return _method(*args)\n"
            "    setattr(SparseEchelon, name, counted)\n"
            f"sys.argv = [{str(script)!r}, {str(certificate)!r}]\n"
            "try:\n"
            f"    runpy.run_path({str(script)!r}, run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(json.dumps({'code': code, 'solver': 'gaussgeom.solver' in sys.modules,"
            " 'echelon_calls': calls}))\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert lines[-2] == "RECHECK: PASS"
        assert json.loads(lines[-1]) == {"code": 0, "solver": False, "echelon_calls": []}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_row_count_and_rank_match_the_solver(self, n):
        # the solver stores exactly the rows that the recheck rebuilds
        from gaussgeom.solver import assemble

        recheck = load_file("recheck_certificate", ROOT / "scripts" / "recheck_certificate.py")
        rows = recheck.constraints(n)
        system = assemble(n)
        for mine, theirs in (
            (system.degrees, rows.degrees),
            (system.starts, rows.starts),
            (system.columns, rows.columns),
            (system.coefficients, rows.values),
            (system.multiplicities, rows.weights),
        ):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        assert rows.unknowns == system.unknowns
        assert rows.row_count == system.row_count
        assert rows.rank() == system.kernel()[0] == system.unknowns - 1


def load_file(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    def test_every_traced_name_still_exists(self):
        for module in MODULES:
            importlib.import_module(module)
        tracing = load_file("perfbench_tracing", ROOT / "perfbench" / "tracing.py")

        solver = sys.modules["gaussgeom.solver"]
        original = solver.assemble
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert solver.assemble is not original
        finally:
            tracer.uninstall()
        assert solver.assemble is original

    def test_traced_ops_succeed_and_count(self, monkeypatch):
        # the certify and predicates ops of the benchmark, at n=2: a return
        # type the tracer cannot read shows as a failed span or a zero counter
        for module in MODULES:
            importlib.import_module(module)
        recheck = load_file("recheck_certificate", ROOT / "scripts" / "recheck_certificate.py")
        monkeypatch.setitem(sys.modules, "recheck_certificate", recheck)
        tracing = load_file("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
        solver = sys.modules["gaussgeom.solver"]
        connections = sys.modules["gaussgeom.connections"]

        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            payload = json.loads(solver.verify_theorem(2).to_json())
            assert recheck.recheck(payload)
            tracer.op = 1
            assert connections.predicate_suite(connections.amari_difference(2)).all_true()
            conn = connections.alpha_connection(2, 3)
            same = connections.curvature(conn) == connections.curvature(
                connections.conjugate(conn)
            )
            assert same is True
        finally:
            tracer.uninstall()

        traced = {span[0] for span in tracer.spans}
        assert {
            "solver.assemble",
            "solver.residuals",
            "exact.echelon.kernel_basis",
            "connections.predicate_suite",
            "connections.curvature",
        } <= traced
        assert not [span for span in tracer.spans if span[5]]
        counters = tracer.counters()
        assert counters["rows"] > 0
        assert counters["eliminations"] > 0
        assert counters["max_bit_size"] > 0


class TestReadmeEntryPoints:
    """Every entry point that README.md names exists, so that a deleted one
    cannot leave stale docs behind."""

    README = (ROOT / "README.md").read_text(encoding="utf-8")

    def test_named_scripts_exist(self):
        named = set(re.findall(r"scripts/[\w./-]+\.py", self.README))
        assert named
        assert sorted(path for path in named if not (ROOT / path).is_file()) == []

    def test_named_subcommands_exist(self):
        from gaussgeom.cli import main

        # a command line, or a code span, that starts with the entry point
        named = set(re.findall(r"(?m)(?:^|`)gaussgeom ([a-z][a-z-]*)", self.README))
        assert named
        assert sorted(named - set(main.commands)) == []
