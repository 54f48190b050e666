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

A process builds one argparse parser, on its first `main` (or
`build_parser`) call, not at import. A one-shot `cauchykl` process pays
that one build, as it always has; code that calls `main` many times in
one process (tests, the benchmark worker, an embedding program) pays it
once rather than on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Callable, NamedTuple

from . import core, oracle, suites
from .core import CauchyDist, PositiveQuadratic
from .errors import CauchyKLError, ParameterError

__all__ = ["main", "execute_job", "format_record"]


# --------------------------------------------------------------------------
# record formatting: fixed key order, 17-significant-digit floats
# --------------------------------------------------------------------------

def _fmt(value: Any) -> str:
    # Floats first: they are most of what a record holds.
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, dict):
        return "{" + ",".join([f"{_json_str(k)}:{_fmt(v)}" for k, v in value.items()]) + "}"
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)


def format_record(record: dict) -> str:
    """Serialize a result record to one JSON line with stable key order."""
    return _fmt(record)


# --------------------------------------------------------------------------
# the op table shared by the single-shot subcommands and batch mode
# --------------------------------------------------------------------------

def _number(value: Any, name: str) -> float:
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"parameter {name!r} must be a number, got {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"parameter {name!r} must be finite, got {value!r}")
    return value


def _quadrature_config(c: dict) -> oracle.QuadratureConfig:
    return oracle.QuadratureConfig(float(c["rtol"]), float(c["atol"]), c["max_depth"])


def _pair(p: dict) -> tuple[CauchyDist, CauchyDist]:
    return CauchyDist(p["l1"], p["s1"]), CauchyDist(p["l2"], p["s2"])


def _quadratics(p: dict) -> tuple[PositiveQuadratic, PositiveQuadratic]:
    return PositiveQuadratic(p["a"], p["b"], p["c"]), PositiveQuadratic(p["d"], p["e"], p["f"])


# Config key -> (JSON type, value when absent, keyword arguments of its
# subcommand flag: --max-depth for max_depth), in echo order.
_CONFIG: dict[str, tuple[str, Any, dict[str, Any]]] = {
    "numeric": ("a boolean", False,
                {"action": "store_true",
                 "help": "evaluate by adaptive quadrature instead of the closed form"}),
    "rtol": ("a number", oracle.DEFAULT_CONFIG.relative_tolerance,
             {"type": float, "default": None, "help": "quadrature relative tolerance"}),
    "atol": ("a number", oracle.DEFAULT_CONFIG.absolute_tolerance,
             {"type": float, "default": None, "help": "quadrature absolute tolerance"}),
    "max_depth": ("an integer", oracle.DEFAULT_CONFIG.max_refinement_depth,
                  {"type": int, "default": None,
                   "help": "quadrature refinement depth (adaptive Gauss-Kronrod only)"}),
    "samples": ("an integer", oracle.DEFAULT_SAMPLES,
                {"type": int, "default": oracle.DEFAULT_SAMPLES}),
    "seed": ("an integer", 0, {"type": int, "default": 0}),
}
# The exact Python types that json decodes each JSON type to.
_JSON_TYPES = {"a boolean": (bool,), "an integer": (int,), "a number": (float, int)}
# Rows read a record's config filled, {**_DEFAULTS, **config}, or _DEFAULTS itself.
_DEFAULTS = {key: default for key, (_, default, _) in _CONFIG.items()}
_QUADRATURE_FLAGS = ("numeric", "rtol", "atol", "max_depth")
_PAIR_PARAMS = ("l1", "s1", "l2", "s2")


class _Op(NamedTuple):
    """One operation: parameter names in echo order, its calls, its config flags.

    Both calls take the validated params, finite floats in `params` order,
    and the filled config. `closed` returns a float from core's float
    entry point (a MonteCarloResult for mc); `quadrature`, used when
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
        lambda p, c: core.kl_floats(*p.values()),
        lambda p, c: oracle.kl_numeric(*_pair(p), _quadrature_config(c)),
        _QUADRATURE_FLAGS,
    ),
    "cross-entropy": _Op(
        _PAIR_PARAMS,
        lambda p, c: core.cross_entropy_floats(*p.values()),
        lambda p, c: oracle.cross_entropy_numeric(*_pair(p), _quadrature_config(c)),
        _QUADRATURE_FLAGS,
    ),
    "mc": _Op(
        _PAIR_PARAMS,
        lambda p, c: oracle.kl_monte_carlo(*_pair(p), c["samples"], c["seed"]),
        flags=("samples", "seed"),
    ),
    "entropy": _Op(
        ("l", "s"),
        lambda p, c: core.entropy_floats(*p.values()),
    ),
    "integral-a": _Op(
        ("a", "b", "c", "d", "e", "f"),
        lambda p, c: core.integral_a_floats(*p.values()),
        lambda p, c: oracle.integral_a_numeric(*_quadratics(p), _quadrature_config(c)),
        _QUADRATURE_FLAGS,
    ),
    "prudnikov": _Op(
        ("a", "b", "z"),
        lambda p, c: core.prudnikov_floats(*p.values()),
    ),
}
# Each op's parameter names as a set, to compare a record's keys against.
_PARAM_SETS = {op: frozenset(spec.params) for op, spec in _OPS.items()}


# Per closed op: its param names in echo order, their types in a plain
# record, and its ok line {"op":..,"params":{..},"status":"ok","value":..}
# with a %.17g slot per float. mc's ok records carry diagnostics, so it
# has none.
_OK_LINES = {
    op: (list(spec.params), (float,) * len(spec.params),
         '{"op":%s,"params":{%s},"status":"ok","value":%%.17g}'
         % (_json_str(op), ",".join(_json_str(k) + ":%.17g" for k in spec.params)))
    for op, spec in _OPS.items() if op != "mc"
}
# The exceptions a failing job raises; each becomes an error record.
_JOB_ERRORS = (CauchyKLError, KeyError, TypeError, ValueError, ArithmeticError, MemoryError)


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
        if not isinstance(op, str) or op not in _OPS:  # a list or object op is unhashable
            raise ParameterError(
                f"unknown operation {op!r}; expected one of {sorted(_OPS)}"
            )
        spec = _OPS[op]
        raw_params = record.get("params", {})
        if not isinstance(raw_params, dict):
            raise ParameterError("params must be an object of name -> number")
        if raw_params.keys() != _PARAM_SETS[op]:
            unknown = sorted(set(raw_params) - _PARAM_SETS[op])
            if unknown:
                raise ParameterError(f"unknown parameters {unknown} for operation {op!r}")
            missing = [k for k in spec.params if k not in raw_params]
            raise ParameterError(f"missing parameters {missing} for operation {op!r}")
        params = {k: _number(raw_params[k], k) for k in spec.params}
        echo["params"] = params
        config = _DEFAULTS
        if "config" in record:
            config = record["config"]
            if not isinstance(config, dict):
                raise ParameterError("config must be an object")
            unknown = sorted(set(config) - set(_CONFIG))
            if unknown:
                raise ParameterError(f"unknown config keys {unknown}")
            for key, value in config.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ParameterError(f"config {key!r} must be finite, got {value!r}")
                kind = _CONFIG[key][0]
                if type(value) not in _JSON_TYPES[kind]:
                    raise ParameterError(f"config {key!r} must be {kind}, got {value!r}")
            if config:
                echo["config"] = {k: config[k] for k in _CONFIG if k in config}
            config = {**_DEFAULTS, **config}
        call = spec.quadrature if spec.quadrature and config["numeric"] else spec.closed
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
        echo["status"] = "ok"
        echo["value"] = value
        if diagnostics is not None:
            echo["diagnostics"] = diagnostics
        return echo
    except _JOB_ERRORS as exc:
        echo["status"] = "error"
        echo["error"] = str(exc) or exc.__class__.__name__
        return echo


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


def _reject_constant(name: str) -> None:
    # json.loads accepts NaN, Infinity and -Infinity, which are not JSON.
    raise ValueError(f"non-finite number {float(name)!r}")


# One decoder for the whole stream: json.loads with a keyword builds a new
# one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_SCAN = _DECODER.scan_once
# JSON's whitespace (RFC 8259, section 2); str.strip() would also drop
# characters such as U+00A0 and U+2028, which make a line not JSON text.
_JSON_SPACE = " \t\r\n"


def _decode(line: str) -> Any:
    """The JSON value of a line: the value or error _DECODER.decode gives.

    The C scanner reads the line from its first character; a line it
    cannot read whole (leading or trailing text included) goes through
    decode, which skips whitespace and raises with the error message.
    """
    try:
        record, end = _SCAN(line, 0)
        if end == len(line):
            return record
    except (StopIteration, ValueError):
        pass
    return _DECODER.decode(line)


def _ok_line(record: Any) -> str | None:
    """format_record(execute_job(record)) for a plain record that is ok, else None.

    A plain record has exactly the keys op and params: op a closed op
    other than mc, params op's names in echo order, each an exact finite
    float. When op's closed call returns a finite float, the line is op's
    template filled in. A call that raises or returns a non-finite value,
    and every record that is not plain, gives None: batch then takes the
    general path.
    """
    if type(record) is not dict or len(record) != 2:
        return None
    op, params = record.get("op"), record.get("params")
    if type(op) is not str or type(params) is not dict or op not in _OK_LINES:
        return None
    names, types, template = _OK_LINES[op]
    if [*params] != names:
        return None
    values = (*params.values(),)
    if tuple(map(type, values)) != types or not all(map(math.isfinite, values)):
        return None
    try:
        value = _OPS[op].closed(params, _DEFAULTS)
    except _JOB_ERRORS:
        return None
    if type(value) is not float or not math.isfinite(value):
        return None
    return template % (*values, value)


def _handle_batch(args: argparse.Namespace) -> int:
    errors = 0
    write = sys.stdout.write
    for raw in sys.stdin:
        line = raw.strip(_JSON_SPACE)
        if not line:
            continue
        try:
            record = _decode(line)
        except ValueError as exc:
            result = {"input": line, "status": "error", "error": f"malformed record: {exc}"}
        else:
            ok = _ok_line(record)
            if ok is not None:
                write(ok + "\n")
                continue
            result = execute_job(record)
            if not isinstance(record, dict):
                # Echo the line as read: the value may hold a number that overflowed to inf.
                result["input"] = line
        errors += result["status"] != "ok"
        write(format_record(result) + "\n")
    return 0 if errors == 0 else 1


def _handle_verify(args: argparse.Namespace) -> int:
    try:
        outcomes = suites.run_suite(args.suite, args.count, args.seed, args.samples)
    except (ParameterError, MemoryError) as exc:
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `cauchykl` parser: built on the first call, the same object after.

    The handlers, the verify suite names and the flag defaults are bound
    when the parser is built, so rebinding `_handle_batch` or
    `suites.SUITE_NAMES` afterwards does not reach it; the handlers
    themselves look the layers up through their modules on every call.
    `build_parser.cache_clear()` makes the next call build afresh.
    Parsing leaves no state in the parser: each `parse_args` call fills
    a new namespace.
    """
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
            sub.add_argument("--" + key.replace("_", "-"), **_CONFIG[key][2])
        sub.set_defaults(handler=_handle_single)

    sub = subparsers.add_parser("batch")
    sub.set_defaults(handler=_handle_batch)

    sub = subparsers.add_parser("verify")
    sub.add_argument("--suite", choices=suites.SUITE_NAMES, default="all")
    sub.add_argument("--count", type=int, default=None,
                     help="check points per float suite (default: per-suite standard "
                          "count); the exact suites prove polynomial identities and "
                          "ignore it")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--samples", type=int, default=oracle.DEFAULT_SAMPLES,
                     help="samples per monte-carlo estimate")
    sub.set_defaults(handler=_handle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one `cauchykl` command line (sys.argv[1:] by default); return its exit status.

    The parser is the process's one `build_parser()`, so only the first
    call pays for building it. A usage error exits with status 2 through
    SystemExit, as argparse does.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`cauchykl batch | head -1`). Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
