"""Command-line front end.

Subcommands
-----------
kl, cross-entropy, entropy, integral-a, prudnikov, mc
    Compute one quantity from numeric flags and print a single result
    record. kl, cross-entropy and integral-a accept --numeric to route
    through the quadrature oracle instead of the closed form.
batch
    Read newline-delimited JSON job records from standard input and
    write one result record per input line, in order; a malformed or
    failing record produces an error record without aborting the stream.
verify
    Run the verification suites (closed-vs-quadrature, certificate, ode,
    monte-carlo, or all) and print one machine-readable line per check.

Records are JSON objects with a fixed key order, one per line; floats
are printed with 17 significant digits so values round-trip exactly.
Exit status is 0 iff every record succeeded (or every check passed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, NamedTuple

from . import core, oracle, suites
from .core import CauchyDist, PositiveQuadratic
from .errors import CauchyKLError, ParameterError

__all__ = ["main", "execute_job", "format_record"]


# --------------------------------------------------------------------------
# record formatting: fixed key order, 17-significant-digit floats
# --------------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_fmt(v)}" for k, v in value.items()) + "}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    return json.dumps(value)


def format_record(record: dict) -> str:
    """Serialize a result record to one JSON line with stable key order."""
    return _fmt(record)


# --------------------------------------------------------------------------
# the op table shared by the single-shot subcommands and batch mode
# --------------------------------------------------------------------------

def _number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"parameter {name!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"parameter {name!r} must be finite, got {value!r}")
    return value


def _int_config(config: dict, key: str, default: int) -> int:
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"config {key!r} must be an integer, got {value!r}")
    return value


def _quadrature_config(config: dict) -> oracle.QuadratureConfig:
    default = oracle.DEFAULT_CONFIG
    return oracle.QuadratureConfig(
        relative_tolerance=float(config.get("rtol", default.relative_tolerance)),
        absolute_tolerance=float(config.get("atol", default.absolute_tolerance)),
        max_refinement_depth=_int_config(config, "max_depth", default.max_refinement_depth),
    )


def _pair(p: dict) -> tuple[CauchyDist, CauchyDist]:
    return CauchyDist(p["l1"], p["s1"]), CauchyDist(p["l2"], p["s2"])


def _quadratics(p: dict) -> tuple[PositiveQuadratic, PositiveQuadratic]:
    return PositiveQuadratic(p["a"], p["b"], p["c"]), PositiveQuadratic(p["d"], p["e"], p["f"])


# Config keys in echo order, each with the keyword arguments of its
# subcommand flag (--max-depth for max_depth).
_CONFIG_FLAGS: dict[str, dict[str, Any]] = {
    "numeric": {"action": "store_true",
                "help": "evaluate by adaptive quadrature instead of the closed form"},
    "rtol": {"type": float, "default": None, "help": "quadrature relative tolerance"},
    "atol": {"type": float, "default": None, "help": "quadrature absolute tolerance"},
    "max_depth": {"type": int, "default": None, "help": "quadrature refinement depth"},
    "samples": {"type": int, "default": oracle.DEFAULT_SAMPLES},
    "seed": {"type": int, "default": 0},
}
_QUADRATURE_FLAGS = ("numeric", "rtol", "atol", "max_depth")
_PAIR_PARAMS = ("l1", "s1", "l2", "s2")


class _Op(NamedTuple):
    """One operation: parameter names in echo order, its calls, its config flags.

    Both calls take the validated params and the raw config. `closed`
    returns a float (a MonteCarloResult for mc); `quadrature`, used when
    config["numeric"] is set, returns a QuadratureResult. The calls look
    layer functions up through their module each time, so rebinding a
    module attribute reaches them.
    """

    params: tuple[str, ...]
    closed: Callable[[dict, dict], Any]
    quadrature: Callable[[dict, dict], oracle.QuadratureResult] | None = None
    flags: tuple[str, ...] = ()


_OPS: dict[str, _Op] = {
    "kl": _Op(
        _PAIR_PARAMS,
        lambda p, c: core.kl_closed(*_pair(p)),
        lambda p, c: oracle.kl_numeric(*_pair(p), _quadrature_config(c)),
        _QUADRATURE_FLAGS,
    ),
    "cross-entropy": _Op(
        _PAIR_PARAMS,
        lambda p, c: core.cross_entropy_closed(*_pair(p)),
        lambda p, c: oracle.cross_entropy_numeric(*_pair(p), _quadrature_config(c)),
        _QUADRATURE_FLAGS,
    ),
    "mc": _Op(
        _PAIR_PARAMS,
        # Keyword order keeps the config checks ahead of the parameter checks.
        lambda p, c: oracle.kl_monte_carlo(
            samples=_int_config(c, "samples", oracle.DEFAULT_SAMPLES),
            seed=_int_config(c, "seed", 0),
            p1=CauchyDist(p["l1"], p["s1"]),
            p2=CauchyDist(p["l2"], p["s2"]),
        ),
        flags=("samples", "seed"),
    ),
    "entropy": _Op(
        ("l", "s"),
        lambda p, c: core.entropy_closed(CauchyDist(p["l"], p["s"])),
    ),
    "integral-a": _Op(
        ("a", "b", "c", "d", "e", "f"),
        lambda p, c: core.integral_a(*_quadratics(p)),
        lambda p, c: oracle.integral_a_numeric(*_quadratics(p), _quadrature_config(c)),
        _QUADRATURE_FLAGS,
    ),
    "prudnikov": _Op(
        ("a", "b", "z"),
        lambda p, c: core.prudnikov_special(p["a"], p["b"], p["z"]),
    ),
}


def execute_job(record: Any) -> dict:
    """Run one job record and return the result record (never raises).

    A job record is {"op": name, "params": {...}, "config": {...}?}; the
    result echoes op/params/config and adds status, value and optional
    diagnostics, or status "error" with a message. A value that is not
    finite is an error too, so every record is valid JSON.
    """
    if not isinstance(record, dict):
        return {"input": record, "status": "error", "error": "record must be a JSON object"}
    op = record.get("op")
    echo: dict[str, Any] = {"op": op if isinstance(op, str) else repr(op)}
    try:
        if op not in _OPS:
            raise ParameterError(
                f"unknown operation {op!r}; expected one of {sorted(_OPS)}"
            )
        spec = _OPS[op]
        raw_params = record.get("params", {})
        if not isinstance(raw_params, dict):
            raise ParameterError("params must be an object of name -> number")
        unknown = sorted(set(raw_params) - set(spec.params))
        if unknown:
            raise ParameterError(f"unknown parameters {unknown} for operation {op!r}")
        missing = [k for k in spec.params if k not in raw_params]
        if missing:
            raise ParameterError(f"missing parameters {missing} for operation {op!r}")
        params = {k: _number(raw_params[k], k) for k in spec.params}
        echo["params"] = params
        config = record.get("config", {})
        if not isinstance(config, dict):
            raise ParameterError("config must be an object")
        unknown = sorted(set(config) - set(_CONFIG_FLAGS))
        if unknown:
            raise ParameterError(f"unknown config keys {unknown}")
        if config:
            echo["config"] = {k: config[k] for k in _CONFIG_FLAGS if k in config}
        call = spec.quadrature if spec.quadrature and config.get("numeric") else spec.closed
        out = call(params, config)
        if isinstance(out, float):
            value, diagnostics = out, None
        elif isinstance(out, oracle.QuadratureResult):
            value = out.value
            diagnostics = {"error_estimate": out.error_estimate,
                           "evaluations": out.evaluations, "converged": out.converged}
        else:
            value = out.estimate
            diagnostics = {"standard_error": out.standard_error,
                           "samples": out.samples, "seed": out.seed}
        if not math.isfinite(value):
            raise ArithmeticError(f"result is not finite: {value!r}")
        result = dict(echo)
        result["status"] = "ok"
        result["value"] = value
        if diagnostics is not None:
            result["diagnostics"] = diagnostics
        return result
    except (CauchyKLError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        result = dict(echo)
        result["status"] = "error"
        result["error"] = str(exc) or exc.__class__.__name__
        return result


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _handle_single(args: argparse.Namespace) -> int:
    spec = _OPS[args.op]
    record: dict[str, Any] = {"op": args.op, "params": {k: getattr(args, k) for k in spec.params}}
    # Quadrature flags count only with --numeric; unset ones fall back to the defaults.
    flags = {k: getattr(args, k) for k in spec.flags}
    if flags.get("numeric", True):
        config = {k: v for k, v in flags.items() if v is not None}
        if config:
            record["config"] = config
    result = execute_job(record)
    line = format_record(result)
    if result["status"] == "ok":
        print(line)
        return 0
    print(line, file=sys.stderr)
    return 1


def _handle_batch(args: argparse.Namespace) -> int:
    errors = 0
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            result = {"input": line, "status": "error", "error": f"malformed record: {exc}"}
        else:
            result = execute_job(record)
        errors += result["status"] != "ok"
        print(format_record(result))
    return 0 if errors == 0 else 1


def _handle_verify(args: argparse.Namespace) -> int:
    try:
        outcomes = suites.run_suite(args.suite, args.count, args.seed, args.samples)
    except ParameterError as exc:
        print(format_record({"status": "error", "error": str(exc)}), file=sys.stderr)
        return 1
    failed = 0
    for outcome in outcomes:
        failed += not outcome.passed
        print(format_record({
            "check": outcome.name,
            "status": "pass" if outcome.passed else "fail",
            "worst": outcome.worst,
            "detail": outcome.detail,
        }))
    print(format_record({
        "suite": args.suite,
        "seed": args.seed,
        "checks": len(outcomes),
        "failed": failed,
        "status": "pass" if failed == 0 else "fail",
    }))
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchykl",
        description="Closed-form divergences between Cauchy distributions, "
                    "with numerical and exact-arithmetic verification.",
    )
    subparsers = parser.add_subparsers(dest="op", required=True)

    for op, spec in _OPS.items():
        sub = subparsers.add_parser(op)
        for name in spec.params:
            sub.add_argument(f"--{name}", type=float, required=True)
        for key in spec.flags:
            sub.add_argument("--" + key.replace("_", "-"), **_CONFIG_FLAGS[key])
        sub.set_defaults(handler=_handle_single)

    sub = subparsers.add_parser("batch")
    sub.set_defaults(handler=_handle_batch)

    sub = subparsers.add_parser("verify")
    sub.add_argument("--suite", choices=suites.SUITE_NAMES, default="all")
    sub.add_argument("--count", type=int, default=None,
                     help="check points per suite (default: per-suite standard count)")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--samples", type=int, default=oracle.DEFAULT_SAMPLES,
                     help="samples per monte-carlo estimate")
    sub.set_defaults(handler=_handle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
