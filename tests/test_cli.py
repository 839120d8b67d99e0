from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from gaussgeom.cli import main
from gaussgeom.exact import QSqrt2


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestVerify:
    def test_single_n_passes(self, runner):
        result = invoke(runner, "verify", "--n", "2")
        assert result.exit_code == 0
        assert "n=2: PASS" in result.output

    def test_default_range(self, runner):
        result = invoke(runner, "verify")
        assert result.exit_code == 0
        for n in (1, 2, 3):
            assert f"n={n}: PASS" in result.output

    def test_json_format(self, runner):
        result = invoke(runner, "verify", "--n", "1", "--format", "json")
        assert result.exit_code == 0
        (payload,) = json.loads(result.output)
        assert payload["status"] == "PASS"
        assert payload["kernel_dim"] == 1

    def test_emit_certificate(self, runner, tmp_path):
        target = tmp_path / "cert.json"
        result = invoke(runner, "verify", "--n", "1", "--emit-certificate", str(target))
        assert result.exit_code == 0
        payload = json.loads(target.read_text())
        assert payload["n"] == 1
        assert payload["kernel"]["Cov(1,1)|Cov(1,1)|Cov(1,1)"] == "2/1 + 0/1*sqrt2"

    def test_conflicting_flags_are_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--n", "1", "--max-n", "2"])
        assert result.exit_code == 2

    def test_rejects_n_zero(self, runner):
        result = runner.invoke(main, ["verify", "--n", "0"])
        assert result.exit_code == 2

    def test_failed_certificate_exits_one(self, runner, monkeypatch):
        import gaussgeom.cli as cli_module
        from gaussgeom.solver import TheoremCertificate

        def failing(n):
            cert = TheoremCertificate(
                n=n, dim=2, unknowns=4, row_count=4, rank=2, kernel_dim=2,
                normalization="",
            )
            cert.record("kernel_dim_is_one", False, "dim=2")
            return cert

        monkeypatch.setattr(cli_module, "verify_theorem", failing)
        result = runner.invoke(main, ["verify", "--n", "1"])
        assert result.exit_code == 1
        assert "FAILED" in result.output and "kernel_dim_is_one" in result.output


class TestTensors:
    def test_levi_civita_contains_mean_mean_entry(self, runner):
        result = invoke(runner, "tensors", "--n", "2", "--what", "levi-civita")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        entry = next(
            e
            for e in payload["entries"]
            if e["x"] == "Mean(1)" and e["y"] == "Mean(1)"
        )
        assert QSqrt2.parse(entry["components"]["Cov(1,1)"]["exact"]) == QSqrt2.sqrt2().inverse()

    def test_bracket_table(self, runner):
        result = invoke(runner, "tensors", "--n", "1", "--what", "brackets")
        payload = json.loads(result.output)
        entry = next(
            e
            for e in payload["entries"]
            if e["x"] == "Mean(1)" and e["y"] == "Cov(1,1)"
        )
        assert QSqrt2.parse(entry["components"]["Mean(1)"]["exact"]) == -QSqrt2.sqrt2().inverse()

    def test_metric_is_identity(self, runner):
        result = invoke(runner, "tensors", "--n", "2", "--what", "metric")
        payload = json.loads(result.output)
        assert all(e["x"] == e["y"] for e in payload["entries"])
        assert len(payload["entries"]) == 5

    def test_cubic_float_rendering(self, runner):
        result = invoke(runner, "tensors", "--n", "1", "--what", "cubic", "--float")
        payload = json.loads(result.output)
        diag = next(
            e for e in payload["entries"] if e["x"] == e["y"] == e["z"] == "Cov(1,1)"
        )
        assert diag["value"]["exact"] == "0/1 + 2/1*sqrt2"
        assert abs(diag["value"]["float"] - 2.8284271247461903) < 1e-12


class TestConnection:
    def test_amari_curvature_is_zero(self, runner):
        result = invoke(
            runner, "connection", "--n", "2", "--alpha", "1", "--what", "curvature"
        )
        payload = json.loads(result.output)
        assert payload["zero"] is True and payload["entries"] == []

    def test_levi_civita_curvature_nonzero(self, runner):
        result = invoke(
            runner, "connection", "--n", "1", "--alpha", "0", "--what", "curvature"
        )
        payload = json.loads(result.output)
        assert payload["zero"] is False and payload["entries"]

    def test_predicates_true_for_family(self, runner):
        result = invoke(
            runner, "connection", "--n", "2", "--alpha", "1/3", "--what", "predicates"
        )
        payload = json.loads(result.output)
        assert payload["conjugate_symmetric"] is True
        assert payload["lc_difference_derivative_symmetric"] is True

    def test_coeffs_amari_cancellation(self, runner):
        result = invoke(
            runner, "connection", "--n", "1", "--alpha", "1", "--what", "coeffs"
        )
        payload = json.loads(result.output)
        # the (Mean(1), Mean(1)) derivative vanishes for the alpha=1 member
        assert not any(
            e["x"] == "Mean(1)" and e["y"] == "Mean(1)" for e in payload["entries"]
        )

    def test_bad_alpha_is_usage_error(self, runner):
        result = runner.invoke(main, ["connection", "--n", "1", "--alpha", "x", "--what", "coeffs"])
        assert result.exit_code == 2


class TestPointwise:
    def test_metric_value(self, runner):
        result = invoke(
            runner,
            "metric",
            "--sigma",
            "[[1.0, 0.0], [0.0, 1.0]]",
            "--mu",
            "[0.0, 0.0]",
            "--s",
            '{"x": [[0,0],[0,0]], "v": [1, 0]}',
            "--t",
            '{"x": [[0,0],[0,0]], "v": [1, 0]}',
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == 1.0

    def test_cubic_value(self, runner):
        result = invoke(
            runner,
            "cubic",
            "--n",
            "1",
            "--s",
            '{"x": [[1.0]], "v": [0]}',
            "--t",
            '{"x": [[0.0]], "v": [1]}',
            "--w",
            '{"x": [[0.0]], "v": [1]}',
        )
        assert json.loads(result.output)["value"] == 1.0

    def test_invalid_tangent_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["metric", "--n", "1", "--s", "[1, 2]", "--t", '{"x": [[0]], "v": [1]}'],
        )
        assert result.exit_code == 2

    def test_indefinite_sigma_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            [
                "metric",
                "--sigma",
                "[[1.0, 2.0], [2.0, 1.0]]",
                "--mu",
                "[0, 0]",
                "--s",
                '{"x": [[0,0],[0,0]], "v": [1, 0]}',
                "--t",
                '{"x": [[0,0],[0,0]], "v": [1, 0]}',
            ],
        )
        assert result.exit_code == 2


class TestOracle:
    def test_estimates_agree_with_closed_forms(self, runner):
        result = invoke(
            runner, "oracle", "--n", "1", "--samples", "200000", "--seed", "7"
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["metric"]["within_3_stderr"] is True
        assert payload["cubic"]["within_3_stderr"] is True

    def test_zero_samples_is_usage_error(self, runner):
        result = runner.invoke(main, ["oracle", "--n", "1", "--samples", "0"])
        assert result.exit_code == 2

    def test_out_of_tolerance_run_exits_one(self, runner):
        # seed 20 at 2000 samples lands outside three standard errors
        result = runner.invoke(
            main, ["oracle", "--n", "1", "--samples", "2000", "--seed", "20"]
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert not (
            payload["metric"]["within_3_stderr"]
            and payload["cubic"]["within_3_stderr"]
        )

    def test_seed_env_fallback(self, runner, monkeypatch):
        monkeypatch.setenv("GAUSSGEOM_SEED", "7")
        with_env = invoke(runner, "oracle", "--n", "1", "--samples", "20000")
        explicit = invoke(
            runner, "oracle", "--n", "1", "--samples", "20000", "--seed", "7"
        )
        assert with_env.output == explicit.output


class TestGroupCommand:
    def test_act(self, runner):
        result = invoke(
            runner,
            "group",
            "--act",
            "--a",
            "[[2.0, 0.0], [0.0, 1.0]]",
            "--b",
            "[0.0, 1.0]",
            "--sigma",
            "[[1.0, 0.0], [0.0, 1.0]]",
            "--mu",
            "[0.0, 0.0]",
        )
        payload = json.loads(result.output)
        assert payload["sigma"] == [[4.0, 0.0], [0.0, 1.0]]
        assert payload["mu"] == [0.0, 1.0]

    def test_phi_round_trip(self, runner):
        forward = invoke(
            runner, "group", "--phi", "--a", "[[2.0, 0.0], [0.0, 1.0]]", "--b", "[0, 0]"
        )
        point = json.loads(forward.output)
        backward = invoke(
            runner,
            "group",
            "--phi-inv",
            "--sigma",
            json.dumps(point["sigma"]),
            "--mu",
            json.dumps(point["mu"]),
        )
        element = json.loads(backward.output)
        assert element["a"] == [[2.0, 0.0], [0.0, 1.0]]

    def test_pullback(self, runner):
        result = invoke(
            runner,
            "group",
            "--pullback",
            "--sigma",
            "[[1.0]]",
            "--mu",
            "[0.0]",
            "--t",
            '{"x": [[0.0]], "v": [1.0]}',
        )
        payload = json.loads(result.output)
        assert payload["coefficients"]["Mean(1)"] == 1.0
        assert payload["coefficients"]["Cov(1,1)"] == 0.0

    def test_requires_exactly_one_mode(self, runner):
        result = runner.invoke(main, ["group", "--act", "--phi"])
        assert result.exit_code == 2


def assert_usage_error(result, message):
    """Exit 2 with one ``Error:`` line naming the problem, no traceback."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0], result.output


POINT_1 = ["--sigma", "[[1.0]]", "--mu", "[0.0]"]
TANGENT_1 = '{"x": [[0.0]], "v": [1.0]}'
TANGENT_2 = '{"x": [[0,0],[0,0]], "v": [1, 0]}'


class TestInputErrors:
    @pytest.mark.parametrize("value", ["abc", "-1", ""])
    def test_bad_seed_env(self, runner, monkeypatch, value):
        monkeypatch.setenv("GAUSSGEOM_SEED", value)
        result = runner.invoke(main, ["oracle", "--n", "1", "--samples", "10"])
        assert_usage_error(result, "GAUSSGEOM_SEED")

    def test_negative_seed_option(self, runner):
        result = runner.invoke(main, ["oracle", "--n", "1", "--samples", "10", "--seed", "-1"])
        assert_usage_error(result, "--seed")

    def test_metric_tangent_dimension_mismatch(self, runner):
        result = runner.invoke(main, ["metric", *POINT_1, "--s", TANGENT_1, "--t", TANGENT_2])
        assert_usage_error(result, "--t has dimension 2, but the point has dimension 1")

    def test_cubic_tangent_dimension_mismatch(self, runner):
        result = runner.invoke(
            main, ["cubic", "--n", "1", "--s", TANGENT_1, "--t", TANGENT_1, "--w", TANGENT_2]
        )
        assert_usage_error(result, "--w has dimension 2, but the point has dimension 1")

    def test_pullback_dimension_mismatch(self, runner):
        result = runner.invoke(main, ["group", "--pullback", *POINT_1, "--t", TANGENT_2])
        assert_usage_error(result, "--t has dimension 2, but the point has dimension 1")

    def test_act_tangent_dimension_mismatch(self, runner):
        result = runner.invoke(
            main, ["group", "--act", "--a", "[[2.0]]", "--b", "[0.0]", *POINT_1, "--t", TANGENT_2]
        )
        assert_usage_error(result, "--t has dimension 2, but the group element has dimension 1")

    def test_act_point_dimension_mismatch(self, runner):
        result = runner.invoke(
            main,
            ["group", "--act", "--a", "[[2.0]]", "--b", "[0.0]",
             "--sigma", "[[1.0, 0.0], [0.0, 1.0]]", "--mu", "[0.0, 0.0]"],
        )
        assert_usage_error(result, "the point has dimension 2, but the group element")

    @pytest.mark.parametrize(
        "args",
        [
            ["metric", "--s", TANGENT_1, "--t", TANGENT_1],
            ["cubic", "--s", TANGENT_1, "--t", TANGENT_1, "--w", TANGENT_1],
            ["oracle", "--samples", "10"],
        ],
    )
    def test_n_with_explicit_point(self, runner, args):
        result = runner.invoke(main, [*args, "--n", "3", *POINT_1])
        assert_usage_error(result, "--n cannot be combined with --sigma/--mu")


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, runner):
        args = ["oracle", "--n", "2", "--samples", "50000", "--seed", "11"]
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output == second.output

    def test_verify_outputs_are_byte_identical(self, runner):
        first = invoke(runner, "verify", "--n", "2", "--format", "json")
        second = invoke(runner, "verify", "--n", "2", "--format", "json")
        assert first.output == second.output
