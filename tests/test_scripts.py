from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, **kwargs
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
