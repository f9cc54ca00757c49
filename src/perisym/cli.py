"""Command-line front end.

All commands read and write JSON on stdin/stdout; polynomial payloads may
be given inline (a JSON object string), as a file path, or as ``-`` for
stdin.  Exit codes: 0 on success, 1 on usage errors, 2 on domain errors
(the error name is echoed as JSON).
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from . import serialize
from .dsmap import _check_member, ds_power, kernel_decompose, membership
from .errors import ArityMismatch, PerisymError
from .euler import euler_characteristic
from .laurent import LaurentPoly
from .lift import LIFT_ROUTES, _route_lift, certify, default_max_window
from .schur import schur_poly
from .thinkac import sch_thin_kac, theta_prime
from .verify import ALL_CRITERIA, run_all


def _parse_weight(text: str, allow_symbol: str | None = None,
                  symbol_value: int | None = None) -> tuple[int, ...]:
    """Comma-separated entries; empty or blank text is the weight ``()``."""
    if not text.strip():
        return ()
    entries = []
    for token in text.split(","):
        token = token.strip()
        if allow_symbol is not None and token == allow_symbol:
            if symbol_value is None:
                raise click.UsageError(
                    f"weight uses the symbol '{allow_symbol}' but no --a value was given"
                )
            entries.append(symbol_value)
        else:
            try:
                entries.append(int(token))
            except ValueError:
                raise click.UsageError(f"bad weight entry {token!r}")
    return tuple(entries)


def _load_json_payload(source: str) -> dict:
    text = source
    if source == "-":
        text = sys.stdin.read()
    elif not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise click.UsageError(f"cannot read {source}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"bad JSON payload: {exc}")


def _load_poly(source: str, n: int | None = None) -> LaurentPoly:
    try:
        poly = serialize.poly_from_dict(_load_json_payload(source))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if n is not None and poly.arity != n:
        raise ArityMismatch(f"payload has arity {poly.arity}, --n says {n}")
    return poly


def _max_window(value: int | None) -> int:
    """The lift search cap: ``--max-window`` if given, else the default,
    with a bad PERISYM_MAX_WINDOW reported as a usage error."""
    if value is not None:
        return value
    try:
        return default_max_window()
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit(data) -> None:
    click.echo(json.dumps(data))


@click.group()
def cli():
    """Exact computations in the supercharacter ring of P(n)."""


@cli.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--lambda", "lam", required=True, help="comma-separated weight entries")
def thinkac(n, lam):
    """Supercharacter of the thin Kac module with highest weight LAMBDA."""
    weight = _parse_weight(lam)
    if len(weight) != n:
        raise ArityMismatch(f"weight has length {len(weight)}, --n says {n}")
    _emit(serialize.poly_to_dict(sch_thin_kac(weight)))


@cli.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--lambda", "lam", required=True)
def schur(n, lam):
    """Schur Laurent polynomial of a dominant weight."""
    weight = _parse_weight(lam)
    if len(weight) != n:
        raise ArityMismatch(f"weight has length {len(weight)}, --n says {n}")
    _emit(serialize.poly_to_dict(schur_poly(weight)))


@cli.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--gamma", required=True, help="parabolic weight, comma-separated")
@click.option("--lambda", "lam", required=True,
              help="line-bundle weight; entries may use the symbol 'a'")
@click.option("--a", "a_value", type=int, default=None,
              help="value substituted for 'a' in --lambda")
def euler(n, gamma, lam, a_value):
    """Euler characteristic of a parabolically induced line bundle."""
    gamma_w = _parse_weight(gamma)
    lam_w = _parse_weight(lam, allow_symbol="a", symbol_value=a_value)
    if len(gamma_w) != n or len(lam_w) != n:
        raise ArityMismatch("--gamma and --lambda must both have length --n")
    poly, expansion = euler_characteristic(lam_w, gamma_w)
    _emit({
        "poly": serialize.poly_to_dict(poly),
        "schur": serialize.schur_to_dict(expansion),
    })


@cli.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, default=1, show_default=True)
@click.option("-f", "payload", required=True, help="polynomial JSON (inline, path, or -)")
def ds(n, k, payload):
    """Apply the evaluation map k times."""
    poly = _load_poly(payload, n)
    _emit(serialize.poly_to_dict(ds_power(poly, k)))


@cli.command()
@click.option("-f", "payload", required=True)
def member(payload):
    """Report symmetry and t-independence of a polynomial."""
    poly = _load_poly(payload)
    _emit(serialize.membership_to_dict(membership(poly)))


@cli.command("kernel-decompose")
@click.option("--n", "n", type=int, required=True)
@click.option("-f", "payload", required=True)
def kernel_decompose_cmd(n, payload):
    """Thin-Kac coordinates of a kernel element."""
    poly = _load_poly(payload, n)
    expansion = kernel_decompose(poly)
    data = serialize.schur_to_dict(expansion)
    data["basis"] = "thinkac"
    _emit(data)


@cli.command()
@click.option("--k", "k", type=int, required=True, help="bead position")
@click.option("-f", "payload", required=True, help="thin-Kac class JSON")
@click.option("--pi-power", is_flag=True,
              help="multiply by (-1)^k (parity-twisted operator)")
def theta(k, payload, pi_power):
    """Translation operator on a thin-Kac class."""
    try:
        cls = serialize.kclass_from_dict(_load_json_payload(payload))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(serialize.kclass_to_dict(theta_prime(k, cls, parity_twist=pi_power)))


@cli.command()
@click.option("--n", "n", type=int, required=True, help="target arity")
@click.option("-h", "payload", required=True, help="target polynomial JSON")
@click.option("--max-window", type=click.IntRange(min=0), default=None,
              help="window search cap, on the window route and the euler fallback")
@click.option("--method", type=click.Choice(LIFT_ROUTES), default="euler", show_default=True,
              help="route for non-diagonal targets; euler falls back to window")
def lift(n, payload, max_window, method):
    """A supersymmetric preimage of the target under the evaluation map.

    The lift is the one a level of certify takes: the direct lift of
    a diagonal target; otherwise Euler-characteristic rounds, falling back
    to the window search where a round stalls, or the window search alone
    with --method window (the output of earlier versions).
    """
    max_window = _max_window(max_window)
    target = _load_poly(payload)
    if target.arity != n - 2:
        raise ArityMismatch(f"target has arity {target.arity}, expected {n - 2}")
    _check_member(target)
    _emit(serialize.poly_to_dict(_route_lift(target, max_window, method)[0]))


@cli.command("certify")
@click.option("--n", "n", type=int, required=True)
@click.option("-f", "payload", required=True)
@click.option("--max-window", type=click.IntRange(min=0), default=None)
@click.option("--lift", "route", type=click.Choice(LIFT_ROUTES), default="euler",
              show_default=True,
              help="lift route for non-diagonal targets; euler falls back to window")
def certify_cmd(n, payload, max_window, route):
    """Peel-and-lift certificate of an element of J_n."""
    max_window = _max_window(max_window)
    poly = _load_poly(payload, n)
    cert = certify(poly, max_window=max_window, lift=route)
    _emit(serialize.certificate_to_dict(cert))


@cli.command("verify-suite")
@click.option("--criteria", default=None,
              help="comma-separated criterion numbers (default: all)")
@click.option("--json", "as_json", is_flag=True,
              help="write one JSON object with every criterion's result instead of lines")
@click.pass_context
def verify_suite(ctx, criteria, as_json):
    """Run the acceptance battery; nonzero exit on any failure."""
    numbers = None
    if criteria is not None:
        try:
            numbers = [int(tok) for tok in criteria.split(",")]
        except ValueError:
            raise click.UsageError(f"bad --criteria {criteria!r}: expected "
                                   "comma-separated criterion numbers")
        unknown = sorted(set(numbers) - set(range(1, len(ALL_CRITERIA) + 1)))
        if unknown:
            raise click.UsageError(f"unknown criterion numbers {unknown}; "
                                   f"expected 1..{len(ALL_CRITERIA)}")
    results = run_all(report=None if as_json else click.echo, numbers=numbers)
    failed = [r for r in results if not r.passed]
    if as_json:
        _emit({"criteria": [dataclasses.asdict(r) for r in results],
               "passed": len(results) - len(failed), "total": len(results)})
    else:
        click.echo(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if failed:
        ctx.exit(1)


def main(argv=None) -> int:
    try:
        # Without standalone mode, click returns the code of a ctx.exit
        # instead of raising it; the commands themselves return None.
        code = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except PerisymError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
