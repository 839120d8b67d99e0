from __future__ import annotations

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import src_env
from gaussgeom import solver

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=src_env(), **kwargs
    )


@pytest.fixture()
def recheck_module():
    spec = importlib.util.spec_from_file_location(
        "recheck_certificate", SCRIPTS / "recheck_certificate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def without_row(system, r):
    """``system`` with distinct row ``r`` removed, built from its CSR arrays."""
    ends = np.append(system.starts[1:], len(system.columns))
    keep = np.ones(len(system.columns), dtype=bool)
    keep[system.starts[r] : ends[r]] = False
    starts = np.delete(system.starts, r)
    starts[r:] -= ends[r] - system.starts[r]
    return dataclasses.replace(
        system,
        starts=starts,
        columns=system.columns[keep],
        coefficients=system.coefficients[keep],
        labels=np.delete(system.labels, r, axis=0),
        multiplicities=np.delete(system.multiplicities, r),
    )


class TestRunVerification:
    def test_writes_certificates_and_passes(self, tmp_path):
        out = tmp_path / "certs"
        result = run(SCRIPTS / "run_verification.py", "--max-n", "2", "--out", out)
        assert result.returncode == 0, result.stderr
        assert "n=1: PASS" in result.stdout and "n=2: PASS" in result.stdout
        payload = json.loads((out / "certificate_n2.json").read_text())
        assert payload["status"] == "PASS"
        assert payload["schema_version"] == "1"


class TestRecheckCertificate:
    def test_accepts_fresh_certificate(self, tmp_path):
        out = tmp_path / "certs"
        run(SCRIPTS / "run_verification.py", "--max-n", "2", "--out", out)
        result = run(
            SCRIPTS / "recheck_certificate.py",
            out / "certificate_n1.json",
            out / "certificate_n2.json",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "RECHECK: PASS" in result.stdout
        # the count is of every emitted constraint, not of distinct rows
        assert "rows_annihilated: PASS (4 rows, 0 nonzero)" in result.stdout
        assert "rows_annihilated: PASS (222 rows, 0 nonzero)" in result.stdout

    def test_rejects_tampered_kernel(self, tmp_path):
        out = tmp_path / "certs"
        run(SCRIPTS / "run_verification.py", "--max-n", "1", "--out", out)
        path = out / "certificate_n1.json"
        payload = json.loads(path.read_text())
        payload["kernel"]["Cov(1,1)|Cov(1,1)|Cov(1,1)"] = "3/1 + 0/1*sqrt2"
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 1
        assert "rows_annihilated: FAIL" in result.stdout
        assert "RECHECK: FAIL" in result.stdout

    def test_rejects_tampered_sqrt2_part(self, tmp_path):
        path = self._certificate(tmp_path)
        payload = json.loads(path.read_text())
        payload["kernel"]["Mean(1)|Mean(1)|Cov(1,1)"] = "1/1 + 1/1*sqrt2"
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 1
        assert "rows_annihilated: FAIL" in result.stdout
        assert "RECHECK: FAIL" in result.stdout

    def test_malformed_label_exits_2(self, tmp_path):
        path = self._certificate(tmp_path)
        payload = json.loads(path.read_text())
        payload["kernel"]["Bogus(1)|Mean(1)|Cov(1,1)"] = "1/1 + 0/1*sqrt2"
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Bogus(1)|Mean(1)|Cov(1,1)" in result.stderr

    def test_bad_n_exits_2(self, tmp_path):
        path = self._certificate(tmp_path)
        payload = json.loads(path.read_text())
        payload["n"] = 0
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert "n must be a positive integer" in result.stderr

    @pytest.mark.parametrize("key", ["rank", "kernel_dim", "unknowns"])
    def test_boolean_rank_field_exits_2(self, tmp_path, key):
        path = self._certificate(tmp_path)
        payload = json.loads(path.read_text())
        payload[key] = True
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert f"{key} must be an integer, got True" in result.stderr
        assert "RECHECK" not in result.stdout

    @pytest.mark.parametrize(
        "forged",
        [{"rank": 33}, {"kernel_dim": 2}, {"rank": 33, "kernel_dim": 2}],
        ids=["rank", "kernel_dim", "rank_and_kernel_dim"],
    )
    def test_rejects_forged_rank_accounting(self, tmp_path, forged):
        # the n=2 system has rank 34 over 35 unknowns; rank 33 with kernel_dim
        # 2 is self-consistent, so only the recomputed rank can catch it
        out = tmp_path / "certs"
        run(SCRIPTS / "run_verification.py", "--max-n", "2", "--out", out)
        path = out / "certificate_n2.json"
        payload = json.loads(path.read_text())
        payload.update(forged)
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 1
        assert "rank_accounting: FAIL (rank 34 of 35 unknowns)" in result.stdout
        assert "RECHECK: FAIL" in result.stdout

    @staticmethod
    def _certificate(tmp_path):
        out = tmp_path / "certs"
        run(SCRIPTS / "run_verification.py", "--max-n", "1", "--out", out)
        return out / "certificate_n1.json"


class TestRecheckInProcess:
    def test_dropped_row_fails_rank_accounting(self, recheck_module, monkeypatch, capsys):
        # the kernel vector still annihilates every remaining row, so only the
        # recomputed rank can notice that a constraint is missing; from n=2 on
        # every single row is implied by the others, at n=1 none is
        n = 1
        payload = json.loads(solver.verify_theorem(n).to_json())
        system = solver.assemble(n)
        rank = system.echelon().rank
        dropped = next(
            smaller
            for smaller in (without_row(system, r) for r in range(len(system.starts)))
            if smaller.echelon().rank < rank
        )
        assert dropped.row_count < system.row_count
        monkeypatch.setattr(recheck_module, "assemble", lambda _: dropped)
        assert recheck_module.recheck(payload) is False
        out = capsys.readouterr().out
        assert f"rows_annihilated: PASS ({dropped.row_count} rows, 0 nonzero)" in out
        assert f"rank_accounting: FAIL (rank {rank - 1} of 4 unknowns)" in out

    def test_certify_path_never_builds_the_row_view(self, recheck_module, monkeypatch):
        def refuse(self):
            raise AssertionError("the tuple-of-tuples row view was built")

        monkeypatch.setattr(solver.ConstraintSystem, "rows", property(refuse))
        cert = solver.verify_theorem(3)
        assert cert.passed
        assert recheck_module.recheck(json.loads(cert.to_json())) is True
