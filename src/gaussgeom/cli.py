"""Command-line front end.

Subcommands: ``verify`` (kernel certification), ``tensors`` (exact algebra
tables), ``connection`` (coefficients, curvature, conjugates, predicates),
``metric`` / ``cubic`` (pointwise closed forms), ``oracle`` (Monte-Carlo
comparison against the closed forms) and ``group`` (action utilities).

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
input errors, including finite input whose float result is not finite.  All
output but the ``verify`` table is JSON with sorted keys and no Infinity or
NaN; exact scalars are printed as strings, and repeated runs with the same
flags and seed are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import click
import numpy as np

from .algebra import basis_indices, lie_algebra
from .connections import (
    alpha_connection,
    amari_difference,
    conjugate,
    curvature,
    predicate_suite,
)
from .exact import QSqrt2
from .group import GroupElement, act, act_tangent, phi, phi_inv, pull_back_to_identity
from .manifold import (
    ManifoldPoint,
    NonFiniteError,
    TangentVector,
    amari_cubic,
    fisher_metric,
    mc_oracle_metric_and_cubic,
)
from .solver import verify_theorem

SEED_ENV = "GAUSSGEOM_SEED"
#: bound on the decimal digits of --alpha's numerator and denominator
ALPHA_DIGITS = 1000


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV, "0")
    if not (text.isascii() and text.isdigit()):
        raise click.UsageError(f"${SEED_ENV} must be a non-negative integer, got {text!r}")
    return int(text)


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _parse_json(text: str, name: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"--{name} is not valid JSON: {exc}") from exc


def _parse_point(sigma: str | None, mu: str | None, n: int | None) -> ManifoldPoint:
    if sigma is None and mu is None:
        if n is None:
            raise click.UsageError("provide --sigma/--mu or --n")
        return ManifoldPoint.standard(n)
    if n is not None:
        raise click.UsageError("--n cannot be combined with --sigma/--mu")
    if sigma is None or mu is None:
        raise click.UsageError("--sigma and --mu must be given together")
    try:
        return ManifoldPoint(_parse_json(sigma, "sigma"), _parse_json(mu, "mu"))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_tangent(text: str, name: str) -> TangentVector:
    payload = _parse_json(text, name)
    if not isinstance(payload, dict) or "x" not in payload or "v" not in payload:
        raise click.UsageError(f'--{name} must look like {{"x": [[...]], "v": [...]}}')
    try:
        return TangentVector(payload["x"], payload["v"])
    except ValueError as exc:
        raise click.UsageError(f"--{name}: {exc}") from exc


def _check_dimensions(n: int, owner: str, **tangents: TangentVector) -> None:
    """Usage error unless every named tangent has dimension n."""
    for name, tangent in tangents.items():
        if tangent.n != n:
            raise click.UsageError(
                f"--{name} has dimension {tangent.n}, but {owner} has dimension {n}"
            )


def _parse_alpha(text: str) -> Fraction:
    # bounded so that every printed entry, at most quadratic in alpha, stays
    # within the 4300-digit int-to-str limit; the exponent is checked before
    # Fraction expands it, as 1e999999999 alone is a 400 MB integer
    _, e, exponent = text.lower().rpartition("e")
    try:
        if e and abs(int(exponent)) > ALPHA_DIGITS:
            raise ValueError("exponent out of range")
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) >= 10**ALPHA_DIGITS:
            raise ValueError("too many digits")
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(
            f"--alpha must be a rational number of at most {ALPHA_DIGITS} digits: {text!r}"
        ) from exc
    return value


def _scalar_payload(value: QSqrt2, render_float: bool) -> dict:
    payload = {"exact": value.to_string()}
    if render_float:
        try:
            number = value.to_float()
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise click.UsageError(
                "--float: an entry is too large for a float; drop --float for exact values"
            )
        payload["float"] = float(f"{number:.15g}")
    return payload


def _in_float_range(compute, *args):
    """``compute(*args)``, or a usage error when finite input overflows to
    inf or nan; numpy's overflow warnings are silenced, as the error says it.
    Any other ``ValueError`` is a usage error with its own message."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = compute(*args)
        except NonFiniteError as exc:
            # a constructor refused the inf or nan that an overflow produced
            raise click.UsageError(f"the result is out of the float range: {exc}") from exc
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    if isinstance(result, float) and not math.isfinite(result):
        raise click.UsageError("the result is out of the float range")
    return result


@click.group()
def main() -> None:
    """Exact and numeric geometry of multivariate normal families."""


@main.command()
@click.option("--n", "single_n", type=click.IntRange(min=1), default=None, help="Verify one n.")
@click.option("--max-n", type=click.IntRange(min=1), default=None, help="Verify n = 1..max-n.")
@click.option(
    "--emit-certificate",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the JSON certificate(s) to this file.",
)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@click.pass_context
def verify(ctx, single_n, max_n, emit_certificate, fmt) -> None:
    """Certify that the conjugate-symmetry kernel is the expected line."""
    if single_n is not None and max_n is not None:
        raise click.UsageError("--n and --max-n are mutually exclusive")
    ns = [single_n] if single_n is not None else list(range(1, (max_n or 3) + 1))
    certificates = [verify_theorem(n) for n in ns]
    if fmt == "json":
        _echo_json([c.to_json_dict() for c in certificates])
    else:
        for cert in certificates:
            status = "PASS" if cert.passed else "FAILED"
            click.echo(
                f"n={cert.n}: {status} (unknowns={cert.unknowns}, "
                f"rank={cert.rank}, kernel_dim={cert.kernel_dim})"
            )
            for failure in cert.failures:
                click.echo(f"  failed: {failure}")
    if emit_certificate:
        blobs = [c.to_json_dict() for c in certificates]
        payload = blobs[0] if len(blobs) == 1 else blobs
        with open(emit_certificate, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not all(c.passed for c in certificates):
        ctx.exit(1)


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option(
    "--what",
    type=click.Choice(["brackets", "u-map", "levi-civita", "cubic", "metric"]),
    required=True,
)
@click.option("--float", "render_float", is_flag=True, help="Add decimal renderings.")
def tensors(n, what, render_float) -> None:
    """Dump exact algebra tables for a given n."""
    alg = lie_algebra(n)
    labels = [idx.label() for idx in alg.indices]
    table = {
        "brackets": alg.structure,
        "u-map": alg.u_coeffs,
        "levi-civita": alg.levi_civita,
        "cubic": alg.cubic,
        "metric": alg.gram,
    }[what]
    entries = []
    for idx, value in table.nonzero_items():
        if what == "cubic" and list(idx) != sorted(idx):
            continue  # one entry per unordered triple
        names = [labels[i] for i in idx]
        payload = _scalar_payload(value, render_float)
        if what in ("cubic", "metric"):
            entries.append({**dict(zip("xyz", names)), "value": payload})
        # brackets, u-map and levi-civita: one entry per (x, y) with its components
        elif entries and [entries[-1]["x"], entries[-1]["y"]] == names[:2]:
            entries[-1]["components"][names[2]] = payload
        else:
            entries.append({"x": names[0], "y": names[1], "components": {names[2]: payload}})
    _echo_json({"n": n, "what": what, "entries": entries})


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--alpha", default="1", help="Rational scaling of the difference tensor.")
@click.option(
    "--what",
    type=click.Choice(["coeffs", "curvature", "conjugate", "predicates"]),
    required=True,
)
@click.option("--float", "render_float", is_flag=True, help="Add decimal renderings.")
def connection(n, alpha, what, render_float) -> None:
    """Inspect a member of the alpha-family of statistical connections."""
    alpha_value = _parse_alpha(alpha)
    labels = [idx.label() for idx in basis_indices(n)]

    if what == "predicates":
        suite = predicate_suite(amari_difference(n).scale(QSqrt2(alpha_value)))
        _echo_json(
            {
                "n": n,
                "alpha": str(alpha_value),
                "conjugate_symmetric": suite.conjugate_symmetric,
                "cubic_derivative_symmetric": suite.cubic_derivative_symmetric,
                "lc_cubic_derivative_symmetric": suite.lc_cubic_derivative_symmetric,
                "lc_difference_derivative_symmetric": suite.lc_difference_derivative_symmetric,
            }
        )
        return

    conn = alpha_connection(n, alpha_value)
    if what == "curvature":
        curv = curvature(conn)
        entries = [
            {
                "x": labels[a],
                "y": labels[b],
                "z": labels[g],
                "w": labels[d],
                "value": _scalar_payload(v, render_float),
            }
            for (a, b, g, d), v in curv.nonzero_items()
        ]
        _echo_json(
            {
                "n": n,
                "alpha": str(alpha_value),
                "zero": curv.is_zero(),
                "entries": entries,
            }
        )
        return

    target = conn if what == "coeffs" else conjugate(conn)
    entries = [
        {
            "x": labels[a],
            "y": labels[b],
            "z": labels[g],
            "value": _scalar_payload(v, render_float),
        }
        for (a, b, g), v in target.nonzero_items()
    ]
    _echo_json({"n": n, "alpha": str(alpha_value), "what": what, "entries": entries})


@main.command()
@click.option("--sigma", default=None, help="Covariance matrix as JSON rows.")
@click.option("--mu", default=None, help="Mean vector as JSON.")
@click.option("--n", type=click.IntRange(min=1), default=None, help="Standard point shortcut.")
@click.option("--s", "s_text", required=True, help='Tangent {"x": [[...]], "v": [...]}.')
@click.option("--t", "t_text", required=True, help="Second tangent, same shape.")
def metric(sigma, mu, n, s_text, t_text) -> None:
    """Evaluate the metric at a point on two tangent vectors."""
    point = _parse_point(sigma, mu, n)
    s = _parse_tangent(s_text, "s")
    t = _parse_tangent(t_text, "t")
    _check_dimensions(point.n, "the point", s=s, t=t)
    _echo_json({"value": _in_float_range(fisher_metric, point, s, t)})


@main.command()
@click.option("--sigma", default=None)
@click.option("--mu", default=None)
@click.option("--n", type=click.IntRange(min=1), default=None)
@click.option("--s", "s_text", required=True)
@click.option("--t", "t_text", required=True)
@click.option("--w", "w_text", required=True)
def cubic(sigma, mu, n, s_text, t_text, w_text) -> None:
    """Evaluate the cubic form at a point on three tangent vectors."""
    point = _parse_point(sigma, mu, n)
    s, t, w = (
        _parse_tangent(s_text, "s"),
        _parse_tangent(t_text, "t"),
        _parse_tangent(w_text, "w"),
    )
    _check_dimensions(point.n, "the point", s=s, t=t, w=w)
    _echo_json({"value": _in_float_range(amari_cubic, point, s, t, w)})


@main.command()
@click.option("--n", type=click.IntRange(min=1), default=None)
@click.option("--sigma", default=None)
@click.option("--mu", default=None)
@click.option("--samples", type=click.IntRange(min=2), default=100_000)
@click.option(
    "--seed", type=click.IntRange(min=0), default=None, help=f"Defaults to ${SEED_ENV} or 0."
)
@click.pass_context
def oracle(ctx, n, sigma, mu, samples, seed) -> None:
    """Monte-Carlo estimates of metric and cubic values vs closed forms."""
    point = _parse_point(sigma, mu, n)
    seed = _default_seed() if seed is None else seed
    rng = np.random.default_rng([seed, 1])
    dim = point.n

    def draw_tangent() -> TangentVector:
        m = rng.normal(size=(dim, dim))
        return TangentVector((m + m.T) / 2.0, rng.normal(size=dim))

    s, t, w = draw_tangent(), draw_tangent(), draw_tangent()

    def compare(name: str, closed: float, estimate) -> dict:
        if not (math.isfinite(estimate.stderr) and estimate.stderr > 0.0):
            raise click.UsageError(
                f"the {name} estimate has standard error {estimate.stderr}, "
                "so it cannot be compared with the closed form"
            )
        numbers = {
            "closed_form": closed,
            "estimate": estimate.value,
            "stderr": estimate.stderr,
            "z": (estimate.value - closed) / estimate.stderr,
        }
        if not all(map(math.isfinite, numbers.values())):
            raise click.UsageError(f"the {name} comparison is out of the float range")
        return {**numbers, "within_3_stderr": abs(numbers["z"]) <= 3.0}

    with np.errstate(over="ignore", invalid="ignore"):
        metric_est, cubic_est = mc_oracle_metric_and_cubic(point, s, t, w, samples, seed)
        report = {
            "samples": samples,
            "seed": seed,
            "metric": compare("metric", fisher_metric(point, s, t), metric_est),
            "cubic": compare("cubic", amari_cubic(point, s, t, w), cubic_est),
        }
    _echo_json(report)
    if not (report["metric"]["within_3_stderr"] and report["cubic"]["within_3_stderr"]):
        ctx.exit(1)


@main.command(name="group")
@click.option("--act", "do_act", is_flag=True, help="Apply (a, b) to a point.")
@click.option("--phi", "do_phi", is_flag=True, help="Map (a, b) to its point.")
@click.option("--phi-inv", "do_phi_inv", is_flag=True, help="Factor a point.")
@click.option("--pullback", "do_pullback", is_flag=True, help="Pull a tangent back to the identity.")
@click.option("--a", "a_text", default=None, help="Upper-triangular matrix as JSON.")
@click.option("--b", "b_text", default=None, help="Translation vector as JSON.")
@click.option("--sigma", default=None)
@click.option("--mu", default=None)
@click.option("--t", "t_text", default=None, help="Tangent vector as JSON.")
def group_cmd(do_act, do_phi, do_phi_inv, do_pullback, a_text, b_text, sigma, mu, t_text) -> None:
    """Group-action utilities with JSON matrix input and output."""
    chosen = [flag for flag in (do_act, do_phi, do_phi_inv, do_pullback) if flag]
    if len(chosen) != 1:
        raise click.UsageError("choose exactly one of --act/--phi/--phi-inv/--pullback")

    def need_element() -> GroupElement:
        if a_text is None or b_text is None:
            raise click.UsageError("--a and --b are required here")
        try:
            return GroupElement(_parse_json(a_text, "a"), _parse_json(b_text, "b"))
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc

    def need_point() -> ManifoldPoint:
        return _parse_point(sigma, mu, None)

    if do_phi:
        p = _in_float_range(phi, need_element())
        _echo_json({"sigma": p.sigma.tolist(), "mu": p.mu.tolist()})
        return
    if do_phi_inv:
        g = _in_float_range(phi_inv, need_point())
        _echo_json({"a": g.a.tolist(), "b": g.b.tolist()})
        return
    if do_act:
        g = need_element()
        p = need_point()
        if g.n != p.n:
            raise click.UsageError(
                f"the point has dimension {p.n}, but the group element has dimension {g.n}"
            )
        if t_text is not None:
            t = _parse_tangent(t_text, "t")
            _check_dimensions(g.n, "the group element", t=t)
            moved = _in_float_range(act_tangent, g, t)
            _echo_json({"x": moved.x.tolist(), "v": moved.v.tolist()})
            return
        q = _in_float_range(act, g, p)
        _echo_json({"sigma": q.sigma.tolist(), "mu": q.mu.tolist()})
        return
    # pullback
    if t_text is None:
        raise click.UsageError("--pullback requires --t")
    p = need_point()
    t = _parse_tangent(t_text, "t")
    _check_dimensions(p.n, "the point", t=t)
    coeffs = _in_float_range(pull_back_to_identity, p, t)
    labels = [idx.label() for idx in basis_indices(p.n)]
    _echo_json({"coefficients": dict(zip(labels, coeffs.tolist()))})


if __name__ == "__main__":
    main()
