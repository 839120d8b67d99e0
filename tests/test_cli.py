from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, random_symmetric
from gaussgeom.algebra import lie_algebra
from gaussgeom.cli import main
from gaussgeom.exact import QSqrt2
from gaussgeom.group import pull_back_to_identity
from gaussgeom.manifold import ManifoldPoint, TangentVector


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


#: 999 nines over 999 sevens: 9/7 in lowest terms
NINES_OVER_SEVENS = "9" * 999 + "/" + "7" * 999
#: coprime 999-digit terms, so every exact contraction at this alpha runs on
#: object arrays of Python ints
LONG_COPRIME = "9" * 999 + "/" + "7" * 998 + "8"


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

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (["--n", "9"], "n=9 has 27720 unknowns, more than --max-unknowns 15180"),
            (["--max-n", "9"], "n=9 has 27720 unknowns"),
            (["--n", "3", "--max-unknowns", "164"], "n=3 has 165 unknowns"),
        ],
    )
    def test_past_max_unknowns_is_refused_before_any_n_runs(
        self, runner, monkeypatch, args, message
    ):
        import gaussgeom.cli as cli_module

        run = []
        monkeypatch.setattr(cli_module, "verify_theorem", run.append)
        result = runner.invoke(main, ["verify", *args])
        assert_usage_error(result, message)
        assert run == []

    @pytest.mark.parametrize(
        ("args", "n"), [(["--n", "8"], 8), (["--n", "3", "--max-unknowns", "165"], 3)]
    )
    def test_max_unknowns_admits_its_bound(self, runner, monkeypatch, args, n):
        # the default admits n = 8, and a bound admits an n with that many
        import gaussgeom.cli as cli_module
        from gaussgeom.solver import TheoremCertificate

        def passing(n):
            cert = TheoremCertificate(
                n=n, dim=2, unknowns=4, row_count=4, rank=3, kernel_dim=1, normalization=""
            )
            cert.record("kernel_dim_is_one", True)
            return cert

        monkeypatch.setattr(cli_module, "verify_theorem", passing)
        result = runner.invoke(main, ["verify", *args])
        assert result.exit_code == 0, result.output
        assert f"n={n}: PASS" in result.output

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

    @pytest.mark.parametrize("alpha", ["0", "1/3", "1e30"])
    def test_curvature_entries_never_build_the_dense_parts(self, runner, monkeypatch, alpha):
        # the sparse pass's curvature is written from its nonzero entries,
        # so the d^4 parts (60 MB at n = 8) are never built
        import gaussgeom.cli as cli_module
        from gaussgeom.connections import curvature

        tables = []

        def kept(gamma):
            tables.append(curvature(gamma))
            return tables[-1]

        monkeypatch.setattr(cli_module, "curvature", kept)
        result = invoke(runner, "connection", "--n", "3", "--alpha", alpha, "--what", "curvature")
        payload = json.loads(result.output)
        [table] = tables
        assert "parts" not in vars(table)
        assert len(payload["entries"]) == len(table.nonzero_items()) > 0

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

    def test_huge_alpha_curvature_is_pinned(self, runner):
        # alpha = 1e30 pushes the curvature integers past int64, onto the
        # object-array path; the SHA-256 of stdout was taken before the dense
        # layer moved to int64 storage
        result = invoke(
            runner, "connection", "--n", "2", "--alpha", "1e30", "--what", "curvature"
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == (
            "ab176faf76a38109e7733edc26920ebc419f287ca2c40e8b50fb83f1c8a34000"
        )

    @pytest.mark.parametrize(
        ("alpha", "what", "digest"),
        [
            (NINES_OVER_SEVENS, "predicates", "7f886253b9975a55973c313d1c1cd8b32794647a37a61bbc0239fd2845c0ebfa"),
            (NINES_OVER_SEVENS, "curvature", "0da364859daea2c5577118c1041814fa6c06efabd6583e3535f7bb74b51eb368"),
            (LONG_COPRIME, "predicates", "2fc78c1e54608008d74f7683a86386e84f5e35025d5630f660636b7056fcff53"),
            (LONG_COPRIME, "curvature", "6da5f6e630e3ddc23f3ff2292a3e86c6f94bab5aa195c0c6d7ab81fd7bef819e"),
        ],
    )
    def test_long_alpha_output_is_pinned(self, runner, alpha, what, digest):
        # SHA-256 of stdout taken when each exact contraction was four
        # tensordots and every cubic-form slot had its own contraction
        result = invoke(runner, "connection", "--n", "3", "--alpha", alpha, "--what", what)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest


#: SHA-256 of stdout for every exact table at n = 2, taken when `tensors` and
#: `connection` wrote their entries in four hand-written ways
EXACT_TABLE_DIGESTS = {
    ("tensors", "brackets", False): "6831f2362ede833e5284ba4a201b6843d3724ae76550fc70e4ac8e68d229211b",
    ("tensors", "brackets", True): "cf9def0c0375eeef7631f704be9489dea051badae94711adecce4548e8ea7063",
    ("tensors", "u-map", False): "3ebc4959382927797569d46b58d6bbe653e71562aedb08fe067b912ee71bf1af",
    ("tensors", "u-map", True): "c7759f09f6d5b0c459b7ea8cae32c75b43bf7b6ed99a348f08301ce53c18b2c7",
    ("tensors", "levi-civita", False): "40e71a6704220897eeecffe810096c6a0ac8635e7f7d1a01361870b32b55bc21",
    ("tensors", "levi-civita", True): "6f1e5aea18c2df791f28a64adf6c42a411e15d636b086718a5ee65acd84377fb",
    ("tensors", "cubic", False): "384fc977e4e93b82ea285cb1409af947078fd529154cc1bae2e8d702361362ec",
    ("tensors", "cubic", True): "cc7a6d19498ae46611b5099ae9997777ffebb08ecdfca5429c981bde46e88b8c",
    ("tensors", "metric", False): "b3c4cb2abac9e67b41b8b8497d96167f51fc71f6fdb5dab7ab5af082261a56d9",
    ("tensors", "metric", True): "877f681d40b81da872a7e51d3d9bd1c6b3d2e9ae419faf8630b3acc2919ae9db",
    ("connection", "coeffs", False): "685633587198dd766cc3b55a2ff360b528a2aefedac76e5eb1d063e804f4c0b1",
    ("connection", "coeffs", True): "3769b12bf51522d11ce844495e58ab3085628e4ebac8c255fdfc4d9d44fae46e",
    ("connection", "conjugate", False): "0b25c04850e0ca81d34da21dc9694eba7e5439afcdb9bcb1599812160d469206",
    ("connection", "conjugate", True): "abda59b78223f50ad1ec0d3964b2df1f225a99f70eaf95ee0b39bf500fbcc2cf",
    ("connection", "curvature", False): "bc655c20b8599687997ea41baeda0fc81d58d0cd59652998c552781f5ba4a478",
    ("connection", "curvature", True): "2a5816dc405c84b7aa72fcc7be5b9f207d5784a07c32175ad4f1ea7e133d12da",
    ("connection", "predicates", False): "a72a74047f4dbe40b0b101127fea93e324cd5155468440b232125b72aceed67d",
    ("connection", "predicates", True): "a72a74047f4dbe40b0b101127fea93e324cd5155468440b232125b72aceed67d",
}


@pytest.mark.parametrize(
    ("command", "what", "render_float"),
    list(EXACT_TABLE_DIGESTS),
    ids=[f"{c}-{w}{'-float' if f else ''}" for c, w, f in EXACT_TABLE_DIGESTS],
)
def test_exact_table_output_is_pinned(runner, command, what, render_float):
    args = [command, "--n", "2", "--what", what]
    if command == "connection":
        args += ["--alpha", "-1/3"]
    if render_float:
        args.append("--float")
    result = invoke(runner, *args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == EXACT_TABLE_DIGESTS[command, what, render_float]


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

    @pytest.mark.filterwarnings("error")
    def test_metric_at_sigma_past_half_the_float_range(self, runner):
        # symmetrising sigma as (m + m.T) / 2 overflowed here and gave 0.0
        tangent = '{"x": [[1]], "v": [1]}'
        result = invoke(
            runner, "metric", "--sigma", "[[1.7e308]]", "--mu", "[0]", "--s", tangent, "--t", tangent
        )
        assert result.exit_code == 0
        value = json.loads(result.output)["value"]
        assert value != 0.0 and math.isclose(value, 1 / 1.7e308, rel_tol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_metric_at_sigma_asymmetric_past_half_the_float_range(self, runner):
        # measuring the asymmetry as |m - m.T| overflowed here and said "by inf"
        tangent = '{"x": [[1, 0], [0, 1]], "v": [1, 0]}'
        result = runner.invoke(
            main,
            ["metric", "--sigma", "[[1e308, -1e308], [1e308, 1e308]]", "--mu", "[0, 0]",
             "--s", tangent, "--t", tangent],
        )
        assert_usage_error(result, "sigma is asymmetric by more than 1.798e+308")

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

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_values_match_the_exact_tables(self, n, seed):
        # two independent paths: the closed forms at the point, and the exact
        # identity tables contracted with the pulled-back coefficients
        rng = np.random.default_rng(seed)
        sigma, mu = random_spd(rng, n), rng.normal(size=n)
        tangents = [TangentVector(random_symmetric(rng, n), rng.normal(size=n)) for _ in range(3)]
        point_args = ["--sigma", json.dumps(sigma.tolist()), "--mu", json.dumps(mu.tolist())]
        tangent_args = [
            arg
            for flag, t in zip(("--s", "--t", "--w"), tangents)
            for arg in (flag, json.dumps({"x": t.x.tolist(), "v": t.v.tolist()}))
        ]
        point = ManifoldPoint(sigma, mu)
        coeffs = [pull_back_to_identity(point, t) for t in tangents]
        alg = lie_algebra(n)
        for command, table in (("metric", alg.gram), ("cubic", alg.cubic)):
            rank = len(table.shape)
            result = invoke(CliRunner(), command, *point_args, *tangent_args[: 2 * rank])
            assert result.exit_code == 0, result.output
            value = json.loads(result.output)["value"]
            want = table.to_float()
            size = np.abs(want)
            for c in reversed(coeffs[:rank]):
                want, size = want @ c, size @ np.abs(c)
            assert abs(value - want) <= 1e-9 * size, (command, value, want)


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

    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "186da2d86fb4b13b0c9346c869899e02738049fa5f0ab7457eb5dcd4e1caf968"),
            (2, "8517a3bc376e720c694be828355aa8370d7374c950ba49db05dc6f05eea3d5be"),
            (3, "4add0b6d8513e1e0bb40df29557d83e71a635fe5ff3d8bf3bc249aca8ab8b87b"),
        ],
    )
    def test_output_is_pinned(self, runner, n, digest):
        # SHA-256 of the stdout of the serial whole-shard estimator, which drew
        # the samples once for the metric and again for the cubic
        result = invoke(runner, "oracle", "--n", str(n), "--samples", "150000", "--seed", "5")
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest


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

    @pytest.mark.filterwarnings("error")
    def test_phi_inv_factors_a_tiny_point(self, runner):
        # a squared pivot of 1e-20 is small only in absolute terms
        result = invoke(runner, "group", "--phi-inv", "--sigma", "[[1e-20]]", "--mu", "[0]")
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"a": [[1e-10]], "b": [0.0]}

    def test_requires_exactly_one_mode(self, runner):
        result = runner.invoke(main, ["group", "--act", "--phi"])
        assert result.exit_code == 2

    @pytest.mark.filterwarnings("error")
    def test_act_with_large_element(self, runner):
        # A Sigma A^T rounds by about 5e-4 on entries near 3e13, past any
        # absolute symmetry tolerance but not past a relative one
        result = invoke(
            runner,
            "group",
            "--act",
            "--a",
            "[[1e6, 3e6, 7e5], [0, 2e6, 1.3e6], [0, 0, 1.7e6]]",
            "--b",
            "[0, 0, 0]",
            "--sigma",
            "[[2, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.1]]",
            "--mu",
            "[0, 0, 0]",
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["sigma"]) == 3


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
TANGENT_X = '{"x": [[1.0]], "v": [0.0]}'
HUGE_TANGENT = '{"x": [[1e300]], "v": [1e300]}'


class TestInputErrors:
    @pytest.mark.parametrize("value", ["abc", "-1", ""])
    def test_bad_seed_env(self, runner, monkeypatch, value):
        monkeypatch.setenv("GAUSSGEOM_SEED", value)
        result = runner.invoke(main, ["oracle", "--n", "1", "--samples", "10"])
        assert_usage_error(result, "GAUSSGEOM_SEED")

    def test_certificate_path_in_missing_directory(self, runner, tmp_path):
        # the table is printed, then the write fails: a usage error, not a
        # failed mathematical check
        path = tmp_path / "missing" / "c.json"
        result = runner.invoke(main, ["verify", "--n", "1", "--emit-certificate", str(path)])
        assert_usage_error(result, str(path))

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
        "alpha,what",
        [
            ("1e400", "coeffs"),
            ("1e400", "conjugate"),
            ("1e400", "curvature"),
            # finite parts whose sum a + b*sqrt2 exceeds the float range
            ("1.5e308", "coeffs"),
        ],
    )
    def test_float_rendering_out_of_range(self, runner, alpha, what):
        result = runner.invoke(
            main, ["connection", "--n", "2", "--alpha", alpha, "--what", what, "--float"]
        )
        assert_usage_error(result, "--float: an entry is too large for a float")

    @pytest.mark.parametrize("alpha", ["1e5000", "1e-5000", "1e999999999", "1/" + "3" * 1001])
    def test_alpha_too_large(self, runner, alpha):
        # every entry printed would pass the 4300-digit int-to-str limit
        result = runner.invoke(
            main, ["connection", "--n", "1", "--alpha", alpha, "--what", "coeffs"]
        )
        assert_usage_error(result, "--alpha must be a rational number of at most 1000 digits")

    @pytest.mark.parametrize(
        "sigma",
        ["{}", '[["a"]]', "[[1" + "0" * 400 + "]]", "[[null]]", "[[1e999]]", "[[-Infinity]]", "[[NaN]]"],
    )
    def test_malformed_point(self, runner, sigma):
        result = runner.invoke(
            main, ["metric", "--sigma", sigma, "--mu", "[0.0]", "--s", TANGENT_1, "--t", TANGENT_1]
        )
        assert_usage_error(result, "sigma must be an array of finite numbers")

    @pytest.mark.parametrize("a", ["{}", "[[null]]", "[[1e999]]"])
    def test_malformed_group_element(self, runner, a):
        result = runner.invoke(main, ["group", "--phi", "--a", a, "--b", "[0.0]"])
        assert_usage_error(result, "a must be an array of finite numbers")

    @pytest.mark.parametrize(
        "args",
        [
            ["--phi", "--a", "[[1e200]]", "--b", "[0.0]"],
            ["--act", "--a", "[[1e200]]", "--b", "[0.0]", *POINT_1],
            ["--act", "--a", "[[1e200]]", "--b", "[0.0]", *POINT_1, "--t", TANGENT_X],
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_group_result_out_of_float_range(self, runner, args):
        result = runner.invoke(main, ["group", *args])
        assert_usage_error(result, "the result is out of the float range")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args",
        [
            ["metric", "--s", HUGE_TANGENT, "--t", HUGE_TANGENT],
            ["cubic", "--s", HUGE_TANGENT, "--t", HUGE_TANGENT, "--w", TANGENT_1],
        ],
    )
    def test_pointwise_value_out_of_float_range(self, runner, args):
        # finite input whose value overflows; numpy warnings would raise here
        result = runner.invoke(main, [*args, "--sigma", "[[1e-300]]", "--mu", "[0]"])
        assert_usage_error(result, "the result is out of the float range")

    def test_oracle_needs_two_samples(self, runner):
        # one sample has no standard error
        result = runner.invoke(main, ["oracle", "--n", "1", "--samples", "1"])
        assert_usage_error(result, "--samples")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sigma,message",
        [
            # the squared deviations underflow, so the estimate looks exact
            ("[[1e300]]", "the metric estimate has standard error 0.0"),
            # the squared products overflow
            ("[[1e-300]]", "the metric estimate has standard error nan"),
        ],
    )
    def test_oracle_standard_error_not_positive_and_finite(self, runner, sigma, message):
        result = runner.invoke(main, ["oracle", "--sigma", sigma, "--mu", "[0]", "--samples", "10"])
        assert_usage_error(result, message)

    def test_oracle_number_out_of_float_range(self, runner, monkeypatch):
        monkeypatch.setattr("gaussgeom.cli.fisher_metric", lambda *args: float("inf"))
        result = runner.invoke(main, ["oracle", "--n", "1", "--samples", "10"])
        assert_usage_error(result, "the metric comparison is out of the float range")

    @pytest.mark.filterwarnings("error")
    def test_group_factorization_out_of_float_range(self, runner):
        args = ["--pullback", "--sigma", "[[1e-300]]", "--mu", "[0]", "--t", HUGE_TANGENT]
        result = runner.invoke(main, ["group", *args])
        assert_usage_error(result, "the result is out of the float range")

    @pytest.mark.filterwarnings("error")
    def test_numerically_singular_point_keeps_its_message(self, runner):
        # the second pivot squared is about 1e-14; nothing overflows, so the
        # error is not reported as a float-range problem
        args = ["--phi-inv", "--sigma", "[[1, 1], [1, 1.00000000000001]]", "--mu", "[0, 0]"]
        result = runner.invoke(main, ["group", *args])
        assert_usage_error(result, "Error: matrix is numerically singular")

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


#: n values for the cheap commands, with a few that must be rejected
N_TEXT = st.sampled_from(["1", "2", "0", "-1", "two", ""])

ALPHA_TEXT = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"-?[0-9_]{1,6}(/[0-9]{1,4}|\.[0-9]{0,4}(e-?[0-9]{1,5})?)?", fullmatch=True),
    st.sampled_from(["1e400", "1.5e308", "1e5000", "1e-5000", "1e999999999", "nan", "1/0"]),
)

JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "v", "y"]), inner, max_size=3),
    max_leaves=8,
)

NUMBER = st.floats() | st.integers()

#: --s/--t/--sigma/--mu/--a/--b text: arbitrary text, arbitrary JSON, and
#: well-shaped tangents, 1x1 matrices and vectors with arbitrary numbers
JSON_TEXT = st.one_of(
    st.text(max_size=20),
    JSON_VALUE.map(json.dumps),
    st.builds(lambda x, v: json.dumps({"x": [[x]], "v": [v]}), NUMBER, NUMBER),
    st.builds(lambda x: json.dumps([[x]]), NUMBER),
    st.builds(lambda v: json.dumps([v]), NUMBER),
)

#: well-shaped n=1 arguments with finite numbers of any magnitude, so that a
#: value can overflow or underflow instead of being rejected as input
FINITE = st.floats(allow_nan=False, allow_infinity=False)
MATRIX_1 = st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(
    lambda x: json.dumps([[x]])
)
VECTOR_1 = FINITE.map(lambda v: json.dumps([v]))
TANGENT_TEXT = st.builds(lambda x, v: json.dumps({"x": [[x]], "v": [v]}), FINITE, FINITE)

SAMPLES_TEXT = st.sampled_from(["0", "1", "2", "10", "100"])

FLOAT_FLAG = st.sampled_from([[], ["--float"]])

ARGV = st.one_of(
    st.builds(
        lambda n, alpha, what, flag: [
            "connection", "--n", n, "--alpha", alpha, "--what", what, *flag
        ],
        N_TEXT,
        ALPHA_TEXT,
        st.sampled_from(["coeffs", "curvature", "conjugate", "predicates"]),
        FLOAT_FLAG,
    ),
    st.builds(
        lambda n, what, flag: ["tensors", "--n", n, "--what", what, *flag],
        N_TEXT,
        st.sampled_from(["brackets", "u-map", "levi-civita", "cubic", "metric"]),
        FLOAT_FLAG,
    ),
    st.builds(
        lambda n, fmt: ["verify", "--n", n, "--format", fmt],
        N_TEXT,
        st.sampled_from(["table", "json"]),
    ),
    st.builds(
        lambda n, s, t: ["metric", "--n", n, "--s", s, "--t", t], N_TEXT, JSON_TEXT, JSON_TEXT
    ),
    st.builds(
        lambda sigma, mu, s: ["metric", "--sigma", sigma, "--mu", mu, "--s", s, "--t", s],
        JSON_TEXT,
        JSON_TEXT,
        JSON_TEXT,
    ),
    st.builds(lambda a, b: ["group", "--phi", "--a", a, "--b", b], JSON_TEXT, JSON_TEXT),
    st.builds(
        lambda n, s, t, w: ["cubic", "--n", n, "--s", s, "--t", t, "--w", w],
        N_TEXT,
        JSON_TEXT,
        JSON_TEXT,
        JSON_TEXT,
    ),
    st.builds(
        lambda sigma, mu, s, t, w: [
            "cubic", "--sigma", sigma, "--mu", mu, "--s", s, "--t", t, "--w", w
        ],
        MATRIX_1,
        VECTOR_1,
        TANGENT_TEXT,
        TANGENT_TEXT,
        TANGENT_TEXT,
    ),
    st.builds(
        lambda sigma, mu, s, t: ["metric", "--sigma", sigma, "--mu", mu, "--s", s, "--t", t],
        MATRIX_1,
        VECTOR_1,
        TANGENT_TEXT,
        TANGENT_TEXT,
    ),
    st.builds(
        lambda n, samples: ["oracle", "--n", n, "--samples", samples],
        N_TEXT,
        SAMPLES_TEXT,
    ),
    st.builds(
        lambda sigma, mu, samples: ["oracle", "--sigma", sigma, "--mu", mu, "--samples", samples],
        MATRIX_1,
        VECTOR_1,
        SAMPLES_TEXT,
    ),
    st.builds(
        lambda a, b, sigma, mu: ["group", "--act", "--a", a, "--b", b, "--sigma", sigma, "--mu", mu],
        JSON_TEXT,
        JSON_TEXT,
        JSON_TEXT,
        JSON_TEXT,
    ),
    st.builds(
        lambda a, b, sigma, mu, t: [
            "group", "--act", "--a", a, "--b", b, "--sigma", sigma, "--mu", mu, *t
        ],
        MATRIX_1,
        VECTOR_1,
        MATRIX_1,
        VECTOR_1,
        st.just([]) | TANGENT_TEXT.map(lambda t: ["--t", t]),
    ),
    st.builds(
        lambda sigma, mu: ["group", "--phi-inv", "--sigma", sigma, "--mu", mu],
        MATRIX_1 | JSON_TEXT,
        VECTOR_1,
    ),
    st.builds(
        lambda sigma, mu, t: ["group", "--pullback", "--sigma", sigma, "--mu", mu, "--t", t],
        MATRIX_1,
        VECTOR_1,
        TANGENT_TEXT | JSON_TEXT,
    ),
)

def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestExitCodeContract:
    @settings(max_examples=250)
    @given(ARGV)
    def test_exit_code_and_determinism(self, argv):
        # exit 0 pass, 1 a mathematical check failed, 2 a usage error: an
        # exception other than SystemExit would be a traceback
        runner = CliRunner()
        first = runner.invoke(main, argv)
        assert first.exception is None or isinstance(first.exception, SystemExit), argv
        assert first.exit_code in (0, 1, 2)
        assert "Traceback" not in first.output
        if first.exit_code in (0, 1) and "table" not in argv:
            # Infinity and NaN are not JSON
            json.loads(first.stdout, parse_constant=reject_constant)
        assert runner.invoke(main, argv).stdout == first.stdout
