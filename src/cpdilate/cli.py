"""Command-line front end with JSON input and deterministic reports.

Subcommands: classify, commute, strong-commute, stochastic, prodsys, dilate.
Exit codes: 0 when the queried property holds or the build verifies, 1 when
the property is false (the report carries a witness), 2 for malformed input,
a size cap that refuses the build, or an internal verification failure. A
reader that closes the pipe early (`| head -1`) does not change the exit code.

Channel files use {"dim": n, "kraus": [matrix, ...]} or {"dim": n, "choi":
matrix} with complex entries encoded as [re, im]; stochastic files use
{"matrix": [[...]]} with real entries. Reports quote every tolerance they
were tested against, and floats are rounded to 12 significant digits so the
output is byte-stable for identical inputs on one platform. The default
tolerance can be overridden with the CPDILATE_TOL environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import chan, stochastic
from .dilation import DEFAULT_BIG_CAP, dilate
from .linalg import DEFAULT_TOL, DEFAULT_VERIFY_TOL, DEFAULT_ZERO_TOL, CapExceededError
from .prodsys import DEFAULT_FIBER_CAP, GridPoint, build_product_system, verify_representation
from .strongcomm import (
    NonCommutingError,
    StrongCommutationCertificate,
    check_commute,
    strong_commutation_certificate,
    verify_certificate,
)


class InputError(ValueError):
    pass


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report: dict, fmt: str) -> None:
    report = _round_floats(report)
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for key in sorted(report):
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    sys.stdout.flush()


def _drop_stdout() -> None:
    """Point the stdout descriptor at os.devnull, so that the flush at exit
    does not raise a second BrokenPipeError."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _require_object(data: Any, where: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _require_object(data, path)


def _channel_from(data: Any, path: str, tol: float) -> chan.KrausFamily:
    _require_object(data, path)
    if "matrix" in data:
        raise InputError(f"{path}: stochastic matrix given where a channel was expected")
    try:
        return chan.channel_from_json(data, tol)
    except (OverflowError, ValueError) as exc:  # also an integer past float range
        raise InputError(f"{path}: {exc}") from exc


def _stochastic_from(data: dict, path: str, tol: float):
    """The real square 'matrix' of a stochastic file, validated as stochastic."""
    if "matrix" not in data:
        raise InputError(f"{path}: expected a 'matrix' field")
    try:
        # The channel decoder's exact types: JSON true/false and strings are not numbers.
        if not all(type(x) in chan._JSON_NUMBERS for row in data["matrix"] for x in row):
            raise ValueError("not a number")
        m = np.array(data["matrix"], dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:  # also an integer past float range
        raise InputError(f"{path}: 'matrix' must be a square array of numbers") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{path}: 'matrix' must be square")
    try:
        stochastic_rows = stochastic.validate(m, tol)
    except ValueError as exc:  # non-finite or negative entries
        raise InputError(f"{path}: {exc}") from exc
    if not stochastic_rows:
        raise InputError(f"{path}: rows do not sum to 1 within {tol}")
    return m


def _load_channel(path: str, tol: float) -> chan.KrausFamily:
    return _channel_from(_load_json(path), path, tol)


def _grid(values) -> GridPoint:
    return GridPoint(int(values[0]), int(values[1]))


def _fields(obj) -> dict:
    """The fields of a library dataclass as report entries: a GridPoint as
    [a, b] and an array as chan.matrix_to_json."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, GridPoint):
            value = list(value.key())
        elif isinstance(value, np.ndarray):
            value = chan.matrix_to_json(value)
        out[f.name] = value
    return out


def cmd_classify(args) -> tuple[int, dict]:
    rep = chan.classify(_load_channel(args.channel, args.tol), args.tol)
    return 0, {"command": "classify", **_fields(rep)}


def cmd_commute(args) -> tuple[int, dict]:
    a, b = (_load_channel(path, args.tol) for path in args.channels)
    rep = check_commute(a, b, args.tol)
    return (0 if rep.commute else 1), {"command": "commute", **_fields(rep)}


def _diagonal_strong_commute(args, p, q) -> tuple[int, dict]:
    rep = stochastic.strongly_commute_diagonal(p, q, args.tol, args.zero_tol)
    report = {
        "command": "strong-commute",
        "route": "diagonal",
        "strongly_commute": rep.strongly_commute,
        "commute": rep.commute,
        "commutation_residual": rep.commutation_residual,
        "card_holds": rep.card.holds,
        "witnesses": [list(w) for w in rep.card.witnesses],
        "near_zero_warnings": [list(w) for w in rep.card.near_zero_entries],
        "tol": rep.tol,
        "zero_tol": rep.card.zero_tol,
    }
    return (0 if rep.strongly_commute else 1), report


def cmd_strong_commute(args) -> tuple[int, dict]:
    loaded = [(_load_json(path), path) for path in args.channels]
    stochastic_flags = ["matrix" in data for data, _ in loaded]
    if stochastic_flags[0] != stochastic_flags[1]:
        raise InputError("cannot mix a stochastic matrix with a channel")
    if stochastic_flags[0]:
        return _diagonal_strong_commute(
            args, *(_stochastic_from(data, path, args.tol) for data, path in loaded)
        )
    theta, phi = (_channel_from(data, path, args.tol) for data, path in loaded)
    head = {"command": "strong-commute", "route": "certificate", "tol": args.tol}
    try:
        cert = strong_commutation_certificate(theta, phi, args.tol)
    except NonCommutingError as exc:
        return 1, {**head, "strongly_commute": False, "error": str(exc)}
    return 0, {**head, "strongly_commute": True, **_fields(cert)}


def cmd_stochastic(args) -> tuple[int, dict]:
    mats = [_stochastic_from(_load_json(path), path, args.tol) for path in args.matrices]
    report: dict = {"command": "stochastic", "tol": args.tol, "zero_tol": args.zero_tol}
    code = 0
    if args.semigroup is not None:
        report["semigroup_t"] = args.semigroup
        report["semigroup"] = [
            [float(x) for x in row] for row in stochastic.semigroup_at(mats[0], args.semigroup)
        ]
    if args.irreducible:
        flags = [stochastic.is_irreducible(m, args.zero_tol) for m in mats]
        report["irreducible"] = flags
        if not all(flags):
            code = 1
    if args.check_card:
        if len(mats) != 2:
            raise InputError("--check-card needs exactly two matrices")
        card = stochastic.card_criterion(mats[0], mats[1], args.zero_tol)
        report["card_holds"] = card.holds
        report["witnesses"] = [list(w) for w in card.witnesses]
        report["near_zero_warnings"] = [list(w) for w in card.near_zero_entries]
        if not card.holds:
            code = 1
    if args.semigroup is None and not args.irreducible and not args.check_card:
        if len(mats) != 2:
            raise InputError("strong commutation check needs exactly two matrices")
        return _diagonal_strong_commute(args, mats[0], mats[1])
    return code, report


def cmd_prodsys(args) -> tuple[int, dict]:
    theta, phi = (_load_channel(path, args.tol) for path in args.channels)
    cert = strong_commutation_certificate(theta, phi, args.tol)
    system = build_product_system(theta, phi, cert, args.tol)
    rep = verify_representation(system, _grid(args.horizon), args.verify_tol, args.cap)
    return (0 if rep.passed else 1), {"command": "prodsys", **_fields(rep), "passed": rep.passed}


def _load_dilate_inputs(args):
    """Two channel files, or one combined {"theta", "phi", "certificate"?} file."""
    if len(args.channels) == 2:
        return (*(_load_channel(path, args.tol) for path in args.channels), None)
    path = args.channels[0]
    data = _load_json(path)
    if "theta" not in data or "phi" not in data:
        raise InputError(f"{path}: a combined file needs 'theta' and 'phi' channels")
    theta = _channel_from(data["theta"], f"{path}: 'theta'", args.tol)
    phi = _channel_from(data["phi"], f"{path}: 'phi'", args.tol)
    cert = None
    if "certificate" in data:
        if not isinstance(data["certificate"], dict) or "u" not in data["certificate"]:
            raise InputError(f"{path}: 'certificate' needs a 'u' matrix")
        try:
            u = chan.matrix_from_json(data["certificate"]["u"])
            chk = verify_certificate(theta, phi, SimpleNamespace(u=u), args.tol)  # reads only u
        except (OverflowError, ValueError) as exc:  # also an integer past float range
            raise InputError(f"{path}: 'certificate': {exc}") from exc
        if not chk.passed:
            raise InputError(
                f"{path}: supplied certificate fails verification "
                f"(unitarity {chk.unitarity_residual:.3e}, "
                f"intertwining {chk.intertwining_residual:.3e})"
            )
        cert = StrongCommutationCertificate(
            len(theta), len(phi), u, chk.unitarity_residual, chk.intertwining_residual
        )
    return theta, phi, cert


def cmd_dilate(args) -> tuple[int, dict]:
    if len(args.channels) not in (1, 2):
        raise InputError("dilate takes two channel files or one combined file")
    theta, phi, cert = _load_dilate_inputs(args)
    horizon, margin = _grid(args.horizon), _grid(args.margin)
    try:
        run = dilate(
            theta, phi, horizon, margin,
            cert=cert, tol=args.tol, verify_tol=args.verify_tol, cap=args.cap,
        )
    except NonCommutingError as exc:
        return 1, {"command": "dilate", "error": str(exc), "tol": args.tol}
    dsp, rep, mini, cert = run.res.dsp, run.report, run.minimality, run.cert
    report = {
        "command": "dilate",
        "horizon": [horizon.a, horizon.b],
        "margin": [margin.a, margin.b],
        "dimK": dsp.dim_k,
        "gram_min_eig": dsp.gram_min_eig,
        "residuals": {
            "isometry": rep.isometry_residual,
            "coisometry": rep.coisometry_residual,
            "dilation": rep.dilation_residual,
            "semigroup": rep.semigroup_residual,
            "multiplicativity": rep.multiplicativity_residual,
        },
        "p_increase_min_eig": rep.p_increase_min_eig,
        "minimality": {
            "span_dim": mini.span_dim,
            "commutant_dim": mini.commutant_dim,
            "closure_dim": mini.closure_dim,
            # A documented constant: the minimality check runs no closure iteration.
            "closure_converged": True,
        },
        "passed": run.passed,
        "tol": rep.tol,
        "certificate_residuals": {
            "unitarity": cert.unitarity_residual,
            "intertwining": cert.intertwining_residual,
        },
    }
    return (0 if run.passed else 1), report


def positive(text: str) -> float:
    """argparse type: a finite number > 0 (errors read "invalid positive value")."""
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(text)
    return value


def nonnegative(text: str) -> float:
    """argparse type: a finite number >= 0 (errors read "invalid nonnegative value")."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdilate",
        description="CP-map calculus, strong commutation and finite-horizon dilations",
    )
    # argparse passes a string default (CPDILATE_TOL) through the type check too.
    env_tol = os.environ.get("CPDILATE_TOL", DEFAULT_TOL)
    parser.add_argument("--tol", type=positive, default=env_tol, help="input/predicate tolerance")
    parser.add_argument(
        "--zero-tol", type=nonnegative, default=DEFAULT_ZERO_TOL, help="nonzero-pattern threshold"
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="CP / unital / contractive report for one channel")
    p.add_argument("channel")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("commute", help="do two channels commute")
    p.add_argument("channels", nargs=2)
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser(
        "strong-commute",
        help="strong-commutation certificate (channels) or criterion (stochastic)",
    )
    p.add_argument("channels", nargs=2)
    p.set_defaults(func=cmd_strong_commute)

    p = sub.add_parser("stochastic", help="stochastic-matrix checks")
    p.add_argument("matrices", nargs="+")
    p.add_argument("--check-card", action="store_true")
    p.add_argument("--irreducible", action="store_true")
    p.add_argument("--semigroup", type=float, default=None, metavar="T")
    p.set_defaults(func=cmd_stochastic)

    p = sub.add_parser("prodsys", help="build and verify the twisted product system")
    p.add_argument("action", choices=["verify"])
    p.add_argument("channels", nargs=2)
    p.add_argument("--horizon", nargs=2, type=int, required=True, metavar=("A", "B"))
    p.add_argument("--verify-tol", type=positive, default=DEFAULT_VERIFY_TOL)
    p.add_argument("--cap", type=int, default=DEFAULT_FIBER_CAP)
    p.set_defaults(func=cmd_prodsys)

    p = sub.add_parser("dilate", help="build and verify the finite-horizon dilation")
    p.add_argument("channels", nargs="+", help="two channel files or one combined file")
    p.add_argument("--horizon", nargs=2, type=int, required=True, metavar=("A", "B"))
    p.add_argument("--margin", nargs=2, type=int, required=True, metavar=("A", "B"))
    p.add_argument("--verify-tol", type=positive, default=DEFAULT_VERIFY_TOL)
    p.add_argument("--cap", type=int, default=DEFAULT_BIG_CAP)
    p.set_defaults(func=cmd_dilate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.func(args)
    except (InputError, OverflowError, ValueError, CapExceededError) as exc:
        code, report = 2, {"error": str(exc)}
    except RuntimeError as exc:
        code, report = 2, {"error": f"internal verification failure: {exc}"}
    except MemoryError as exc:
        code, report = 2, {"error": f"out of memory: {exc}"}
    try:
        _emit(report, args.format)
    except BrokenPipeError:
        # The reader left early (`| head -1`): the exit code stays the verdict.
        _drop_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
