"""The package's import layout, as its callers and the benchmark rely on it."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


class TestImportSplit:
    def test_root_exports_only_the_version(self):
        import gaussgeom

        submodules = {module.rsplit(".", 1)[1] for module in MODULES}
        public = {name for name in vars(gaussgeom) if not name.startswith("_")}
        assert public <= submodules
        assert gaussgeom.__version__ == "0.1.0"

    @pytest.mark.parametrize("module", ["gaussgeom", "gaussgeom.solver"])
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


class TestBenchmarkTracer:
    def test_every_traced_name_still_exists(self):
        for module in MODULES:
            importlib.import_module(module)
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
        )
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)

        solver = sys.modules["gaussgeom.solver"]
        original = solver.assemble
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert solver.assemble is not original
        finally:
            tracer.uninstall()
        assert solver.assemble is original
