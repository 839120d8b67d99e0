from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import qsqrt2s, src_env
from gaussgeom import solver
from gaussgeom.algebra import basis_labels
from gaussgeom.exact import ExactArray, QSqrt2
from gaussgeom.tensors import SymTensor3, basis_dimension, symmetric_triples, triple_label

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=src_env(), **kwargs
    )


@pytest.fixture(scope="module")
def recheck_module():
    spec = importlib.util.spec_from_file_location(
        "recheck_certificate", SCRIPTS / "recheck_certificate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def without_row(system, r):
    """The recheck's ``system`` with row ``r`` removed, built from its CSR arrays."""
    ends = np.append(system.starts[1:], len(system.columns))
    keep = np.ones(len(system.columns), dtype=bool)
    keep[system.starts[r] : ends[r]] = False
    starts = np.delete(system.starts, r)
    starts[r:] -= ends[r] - system.starts[r]
    return dataclasses.replace(
        system,
        weights=np.delete(system.weights, r),
        starts=starts,
        columns=system.columns[keep],
        values=system.values[keep],
    )


def verify(*args):
    """``gaussgeom verify`` with ``args``, run in a fresh process."""
    return run("-m", "gaussgeom.cli", "verify", *args)


class TestRunVerification:
    """``gaussgeom verify --emit-certificate``, the one certificate writer."""

    def test_writes_certificates_and_passes(self, tmp_path):
        path = tmp_path / "certs.json"
        result = verify("--max-n", "2", "--emit-certificate", path)
        assert result.returncode == 0, result.stderr
        assert "n=1: PASS" in result.stdout and "n=2: PASS" in result.stdout
        payloads = json.loads(path.read_text())
        assert [payload["n"] for payload in payloads] == [1, 2]
        assert payloads[1]["status"] == "PASS"
        assert payloads[1]["schema_version"] == "1"
        # one n is written as its certificate's own bytes
        verify("--n", "2", "--emit-certificate", path)
        assert path.read_text() == solver.verify_theorem(2).to_json() + "\n"

    def test_certificate_path_is_a_directory_exits_2(self, tmp_path):
        path = tmp_path / "taken"
        path.mkdir()
        result = verify("--max-n", "1", "--emit-certificate", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if "Error:" in line]
        assert len(errors) == 1 and str(path) in errors[0], result.stderr
        # rejected before any verification runs
        assert result.stdout == ""


class TestRecheckCertificate:
    def test_accepts_fresh_certificate(self, tmp_path):
        # a list file of two certificates, as ``verify --max-n`` writes it,
        # beside a file of one, as ``verify --n`` writes it
        path = tmp_path / "certs.json"
        verify("--max-n", "2", "--emit-certificate", path)
        result = run(SCRIPTS / "recheck_certificate.py", path, self._certificate(tmp_path, n=2))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "RECHECK: PASS" in result.stdout
        assert result.stdout.count("rows_annihilated: PASS") == 3
        # the count is of every emitted constraint, not of distinct rows
        assert "rows_annihilated: PASS (4 rows, 0 nonzero)" in result.stdout
        assert "rows_annihilated: PASS (222 rows, 0 nonzero)" in result.stdout

    def test_rejects_tampered_kernel(self, tmp_path):
        path = self._certificate(tmp_path)
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

    def test_repeated_triple_exits_2(self, tmp_path):
        # a second label of the Mean(1)|Mean(1)|Cov(1,1) triple must not
        # silently replace the recorded value
        path = self._certificate(tmp_path)
        payload = json.loads(path.read_text())
        payload["kernel"]["Cov(1,1)|Mean(1)|Mean(1)"] = "7/1 + 0/1*sqrt2"
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Cov(1,1)|Mean(1)|Mean(1)" in result.stderr
        assert "RECHECK" not in result.stdout

    def test_empty_certificate_list_exits_2(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert result.stderr.startswith("error:")
        assert "RECHECK" not in result.stdout

    def test_zero_denominator_value_exits_2(self, tmp_path):
        path = self._certificate(tmp_path)
        payload = json.loads(path.read_text())
        payload["kernel"]["Mean(1)|Mean(1)|Cov(1,1)"] = "1/0 + 0/1*sqrt2"
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert result.stderr.startswith("error:")

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
        path = self._certificate(tmp_path, n=2)
        payload = json.loads(path.read_text())
        payload.update(forged)
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 1
        assert "rank_accounting: FAIL (rank 34 of 35 unknowns)" in result.stdout
        assert "RECHECK: FAIL" in result.stdout

    @pytest.mark.parametrize(
        "field, forged",
        [
            ("row_count", 1),
            ("row_count", 222.0),
            ("dim", 99),
            ("statistical_space_dim", 7),
            ("checks", {"nonzero_pattern": False}),
            ("checks", {}),
            ("failures", ["forged"]),
            ("schema_version", "9"),
        ],
        ids=[
            "row_count",
            "row_count_as_float",
            "dim",
            "statistical_space_dim",
            "one_check_false",
            "no_checks",
            "failures",
            "schema_version",
        ],
    )
    def test_rejects_forged_metadata(self, tmp_path, field, forged):
        # one field of a valid n=2 certificate forged at a time; the kernel,
        # the rank and the status still hold, so only the metadata check fails
        payload = json.loads(solver.verify_theorem(2).to_json())
        if field == "checks" and forged:
            forged = {**payload["checks"], **forged}
        payload[field] = forged
        path = tmp_path / "certificate_n2.json"
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 1
        checks = result.stdout.splitlines()[1:-1]
        assert [line for line in checks if "FAIL" in line] == [
            f"  metadata_consistent: FAIL ({field})"
        ]
        assert result.stdout.endswith("RECHECK: FAIL\n")

    def test_doubled_generator_fails_only_pattern_match(self, tmp_path):
        # twice the generator annihilates the same rows and is as nonzero, so
        # only the certified normalization can catch it
        payload = json.loads(solver.verify_theorem(2).to_json())
        payload["kernel"] = SymTensor3.from_labels(2, payload["kernel"]).scale(2).labelled()
        path = tmp_path / "certificate_n2.json"
        path.write_text(json.dumps(payload))
        result = run(SCRIPTS / "recheck_certificate.py", path)
        assert result.returncode == 1
        checks = result.stdout.splitlines()[1:-1]
        assert [line for line in checks if "FAIL" in line] == [
            f"  pattern_match: FAIL ({len(payload['kernel'])} mismatches)"
        ]
        assert "  rows_annihilated: PASS (222 rows, 0 nonzero)" in checks
        assert "  rank_accounting: PASS (rank 34 of 35 unknowns)" in checks
        assert result.stdout.endswith("RECHECK: FAIL\n")

    @staticmethod
    def _certificate(tmp_path, n=1):
        path = tmp_path / f"certificate_n{n}.json"
        verify("--n", str(n), "--emit-certificate", path)
        return path


class TestRecheckInProcess:
    def test_dropped_row_fails_rank_accounting(self, recheck_module, monkeypatch, capsys):
        # the kernel vector still annihilates every remaining row, so only the
        # recomputed rank can notice that a constraint is missing; at n=1
        # every row is needed
        n = 1
        payload = json.loads(solver.verify_theorem(n).to_json())
        system = recheck_module.constraints(n)
        rank = system.rank()
        dropped = next(
            smaller
            for smaller in (without_row(system, r) for r in range(len(system.starts)))
            if smaller.rank() < rank
        )
        assert dropped.row_count < system.row_count
        monkeypatch.setattr(recheck_module, "constraints", lambda _: dropped)
        assert recheck_module.recheck(payload) is False
        out = capsys.readouterr().out
        assert f"rows_annihilated: PASS ({dropped.row_count} rows, 0 nonzero)" in out
        assert f"rank_accounting: FAIL (rank {rank - 1} of 4 unknowns)" in out

    def test_zero_generator_fails_rank_accounting(self, recheck_module, capsys):
        # a zero kernel annihilates every row, so it caps no rank: the rank
        # proves uniqueness only beside a nonzero generator
        payload = json.loads(solver.verify_theorem(2).to_json())
        payload["kernel"] = {}
        assert recheck_module.recheck(payload) is False
        out = capsys.readouterr().out
        assert "rows_annihilated: PASS (222 rows, 0 nonzero)" in out
        assert "rank_accounting: FAIL (rank 34 of 35 unknowns)" in out

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_valid_certificates_pass_every_check(self, recheck_module, capsys, n):
        assert recheck_module.recheck(json.loads(solver.verify_theorem(n).to_json())) is True
        out = capsys.readouterr().out
        assert "FAIL" not in out and "metadata_consistent: PASS" in out

    def test_certify_path_never_builds_the_row_view(self, recheck_module, monkeypatch):
        def refuse(self):
            raise AssertionError("the tuple-of-tuples row view was built")

        monkeypatch.setattr(solver.ConstraintSystem, "rows", property(refuse))
        cert = solver.verify_theorem(3)
        assert cert.passed
        assert recheck_module.recheck(json.loads(cert.to_json())) is True


    def test_recheck_builds_no_full_length_vector(self, recheck_module, monkeypatch):
        # the kernel and the pattern are read at their 30 nonzero triples,
        # never as a per-entry build over all 560
        payload = json.loads(solver.verify_theorem(4).to_json())
        sizes = []
        build = ExactArray.build.__func__

        def counted(cls, shape, entry):
            sizes.append(math.prod(shape))
            return build(cls, shape, entry)

        monkeypatch.setattr(ExactArray, "build", classmethod(counted))
        assert recheck_module.recheck(payload) is True
        assert sizes and max(sizes) < payload["unknowns"] == 560


@functools.lru_cache(maxsize=None)
def certificate_text(n: int) -> str:
    return solver.verify_theorem(n).to_json()


#: the recorded numbers, the flags and the kind of each single edit
NUMBERS = ("n", "dim", "unknowns", "statistical_space_dim", "row_count", "rank", "kernel_dim")
FLAGS = ("status", "schema_version", "failures", "checks")
EDITS = st.one_of(
    st.tuples(st.just("number"), st.sampled_from(NUMBERS), st.integers(-3, 3).filter(bool)),
    st.tuples(st.just("value"), st.integers(0, 20), qsqrt2s().filter(bool)),
    st.tuples(st.just("label"), st.integers(0, 20), st.integers(0, 200)),
    st.tuples(st.just("flag"), st.sampled_from(FLAGS), st.integers(0, 20)),
)


def edited(n: int, edit: tuple) -> dict:
    """A valid certificate of ``n`` with one recorded number, kernel value,
    kernel label or flag changed."""
    payload = json.loads(certificate_text(n))
    kind, where, change = edit
    kernel = payload["kernel"]
    if kind == "number":
        payload[where] += change
    elif kind == "value":
        label = sorted(kernel)[where % len(kernel)]
        kernel[label] = (QSqrt2.parse(kernel[label]) + change).to_string()
    elif kind == "label":
        # renamed to a label of another triple
        label = sorted(kernel)[where % len(kernel)]
        position = {name: p for p, name in enumerate(basis_labels(n))}
        old = tuple(sorted(position[part] for part in label.split("|")))
        triples = [t for t in symmetric_triples(basis_dimension(n)) if t != old]
        kernel[triple_label(n, triples[change % len(triples)])] = kernel.pop(label)
    elif where == "checks":
        payload["checks"][sorted(payload["checks"])[change % len(payload["checks"])]] = False
    else:
        payload[where] = {"status": "FAILED", "schema_version": "2", "failures": ["edited"]}[where]
    return payload


class TestSingleEdits:
    # the profile is derandomized, so the edits that must be tried are
    # pinned; the other fields have tests of their own above
    @given(n=st.sampled_from([1, 2]), edit=EDITS)
    @example(n=2, edit=("number", "rank", -1))
    @example(n=2, edit=("number", "row_count", 1))
    @example(n=1, edit=("value", 0, QSqrt2(0, 1)))
    @example(n=2, edit=("label", 3, 7))
    @example(n=1, edit=("number", "n", 1))
    @example(n=2, edit=("number", "unknowns", -1))
    @example(n=2, edit=("flag", "status", 0))
    def test_single_edit_never_passes(self, recheck_module, n, edit):
        payload = edited(n, edit)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "certificate.json"
            path.write_text(json.dumps(payload))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = recheck_module.main([str(path)])
        assert code in (1, 2)
        assert "RECHECK: PASS" not in out.getvalue()
        assert ("RECHECK: FAIL" in out.getvalue()) == (code == 1)


class TestBenchStageProbe:
    def test_stage_probe_on_the_working_tree(self, bench):
        # the probe calls only what the parent side also has, in a fresh
        # interpreter that must import this checkout's package
        record = bench.stages(bench.ROOT, 2)
        assert record["passed"] is True
        assert record["rank"] == record["unknowns"] - 1 == 34
        stages = (
            "lie_algebra",
            "assemble",
            "solve",
            "verify",
            "predicates_random",
            "predicates_amari",
            "curvature_random",
            "curvature_amari",
            "curvature_pair_amari",
            "family",
            "pullback",
            "alpha_form",
            "recheck",
        )
        assert {f"{stage}_s" for stage in stages} <= record.keys()
        assert record["recheck_passed"] is True
        for stage in stages:
            assert isinstance(record[f"{stage}_minor_faults"], int)
            assert record[f"{stage}_minor_faults"] >= 0
        assert "echelon_s" not in record
        # resident before verify starts and after it returns: within the
        # process's peak, never above
        assert 0 < record["verify_rss_before_mb"] <= record["peak_rss_mb"]
        assert 0 < record["verify_rss_after_mb"] <= record["peak_rss_mb"]

    def test_stage_probe_records_one_monte_carlo_round(self, bench):
        record = bench.stages(bench.ROOT, 2)
        assert record["mc_s"] > 0
        assert isinstance(record["mc_minor_faults"], int)
        assert record["mc_minor_faults"] >= 0
        # read from /proc/self/statm around the call: pages freed by the
        # call's own frees can leave it a little below zero
        assert isinstance(record["mc_rss_growth_mb"], float)


class TestBenchSummary:
    """``scripts/bench.py``'s summary of parent/change pairs, on made-up runs."""

    @staticmethod
    def result(failed, **values):
        return {"failed": failed, "metrics": {k: {"unit": "", "value": v} for k, v in values.items()}}

    def test_quartiles_medians_and_better_pairs(self, bench):
        pairs = [
            {
                "parent": self.result(0, ops_per_s=p, peak_rss_mb=40.0),
                "change": self.result(f, ops_per_s=c, peak_rss_mb=r),
            }
            for p, c, r, f in [
                (10, 20, 41.0, 0),
                (12, 24, 40.0, 1),
                (11, 9, 39.0, 0),
                (13, 30, 40.0, 2),
                (9, 18, 42.0, 0),
            ]
        ]
        summary = bench.summarize(pairs, {"ops_per_s": "higher", "peak_rss_mb": "lower"})
        assert summary["pairs"] == 5
        assert summary["failed_ops"] == {"parent": 0, "change": 3}
        assert summary["ops_per_s"] == {
            "parent_q1_median_q3": [10, 11, 12],
            "change_q1_median_q3": [18, 20, 24],
            "change_better_pairs": 4,
            "median_ratio_change_over_parent": round(20 / 11, 4),
        }
        # a tie is not better; lower is better for peak RSS
        assert summary["peak_rss_mb"]["change_better_pairs"] == 1
        assert summary["peak_rss_mb"]["change_q1_median_q3"] == [40.0, 40.0, 41.0]

    def test_single_pair(self, bench):
        pairs = [{"parent": self.result(0, setup_s=0.2), "change": self.result(0, setup_s=0.1)}]
        summary = bench.summarize(pairs, {"setup_s": "lower"})
        assert summary["setup_s"]["parent_q1_median_q3"] == [0.2, 0.2, 0.2]
        assert summary["setup_s"]["change_better_pairs"] == 1
