"""CLI: record format, exit-status contract, batch streaming, verify suites."""

import argparse
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cauchykl
from cauchykl import certificate, cli, core, oracle, suites
from cauchykl.cli import _CONFIG, _OPS, execute_job, format_record, main
from cauchykl.core import (
    CauchyDist,
    PositiveQuadratic,
    cross_entropy_closed,
    entropy_closed,
    integral_a,
    kl_closed,
    prudnikov_special,
)
from cauchykl.errors import CauchyKLError, ParameterError
from cauchykl.suites import closed_vs_quadrature_suite, monte_carlo_suite, ode_suite, run_suite

BATCH_INPUT = """\
{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}
{"op":"kl","params":{"l1":1,"s1":2,"l2":3,"s2":5}}
{"op":"mc","params":{"l1":0,"s1":1,"l2":0,"s2":3},"config":{"samples":50000,"seed":7}}
{"op":"entropy","params":{"l":0,"s":1}}
{"op":"integral-a","params":{"a":2,"b":1,"c":3,"d":1,"e":-1,"f":5},"config":{"numeric":true}}
"""

# Byte-for-byte fixture recorded from the first run of BATCH_INPUT; the mc
# record pins the seeded sampler, the numeric record pins the quadrature.
# The second kl value is the double nearest log(53/40) =
# 0.28141245943818553129... (mpmath, 50 digits).
BATCH_GOLDEN = """\
{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1},"status":"ok","value":0.22314355131420976}
{"op":"kl","params":{"l1":1,"s1":2,"l2":3,"s2":5},"status":"ok","value":0.28141245943818555}
{"op":"mc","params":{"l1":0,"s1":1,"l2":0,"s2":3},"config":{"samples":50000,"seed":7},"status":"ok","value":0.28547519295906365,"diagnostics":{"standard_error":0.0032656862662854671,"samples":50000,"seed":7}}
{"op":"entropy","params":{"l":0,"s":1},"status":"ok","value":2.5310242469692907}
{"op":"integral-a","params":{"a":2,"b":1,"c":3,"d":1,"e":-1,"f":5},"config":{"numeric":true},"status":"ok","value":3.2529544459089399,"diagnostics":{"error_estimate":9.4405634671705183e-15,"evaluations":32,"converged":true}}
"""


def run_batch(monkeypatch, capsys, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["batch"])
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# single-shot subcommands
# ---------------------------------------------------------------------------

def test_kl_single(capsys):
    assert main(["kl", "--l1", "0", "--s1", "1", "--l2", "1", "--s2", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "ok"
    assert record["value"] == kl_closed(CauchyDist(0, 1), CauchyDist(1, 1))
    assert record["value"] == pytest.approx(0.2231435513, abs=1e-10)


def test_entropy_single(capsys):
    assert main(["entropy", "--l", "0", "--s", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == pytest.approx(math.log(4 * math.pi), rel=1e-15)


def test_invalid_scale_reports_error_on_stderr(capsys):
    code = main(["kl", "--l1", "0", "--s1", "1", "--l2", "0", "--s2", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["status"] == "error"
    assert "scale must be positive" in record["error"]


def test_numeric_flag_reports_diagnostics(capsys):
    assert main(["kl", "--l1", "0", "--s1", "1", "--l2", "1", "--s2", "1",
                 "--numeric"]) == 0
    record = json.loads(capsys.readouterr().out)
    diag = record["diagnostics"]
    assert diag["converged"] is True
    assert diag["evaluations"] > 0
    assert record["value"] == pytest.approx(math.log(5 / 4), abs=1e-9)


def test_mc_single_deterministic(capsys):
    argv = ["mc", "--l1", "0", "--s1", "1", "--l2", "1", "--s2", "1",
            "--samples", "20000", "--seed", "42"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_prudnikov_single(capsys):
    assert main(["prudnikov", "--a", "2", "--b", "0", "--z", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == pytest.approx(math.pi * math.log(9), rel=1e-14)


# ---------------------------------------------------------------------------
# record format
# ---------------------------------------------------------------------------

def test_floats_round_trip_through_17_digits():
    for value in (0.1, math.pi, 1 / 3, 2.1077194678747861e-12, 1e300, -7.25):
        record = format_record({"value": value})
        assert json.loads(record)["value"] == value


def _plain_format(value):
    """Reference formatter: json.dumps for keys and non-floats, 17 digits for floats."""
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _plain_format(v) for k, v in value.items()) + "}"
    if isinstance(value, float):
        return "%.17g" % value
    return json.dumps(value)


# Strings records are built from, drawn as keys and values next to arbitrary text.
_RECORD_STRINGS = st.sampled_from(["op", "params", "config", "status", "value", "error",
                                   "diagnostics", "input", "l1", "s2", "seed", "ok", "kl"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | _RECORD_STRINGS
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_RECORD_STRINGS | st.text(), children, max_size=4),
    max_leaves=12,
)


# Floats a record holds, the ends of the double range among them.
_RECORD_FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308,
                                  -1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False)
# Ok records of each op's shape, most of what batch prints, with now and
# then a value that is not a float or a diagnostics key.
_OK_RECORDS = st.sampled_from(list(_OPS.items())).flatmap(lambda item: st.fixed_dictionaries(
    {"op": st.just(item[0]),
     "params": st.fixed_dictionaries({name: _RECORD_FLOATS for name in item[1].params}),
     "status": st.just("ok"),
     "value": _RECORD_FLOATS | st.integers() | st.booleans()},
    optional={"diagnostics": _JSON_VALUES}))


@given(st.dictionaries(_RECORD_STRINGS | st.text(), _JSON_VALUES, max_size=6) | _OK_RECORDS)
@example({"value": -0.0, "tiny": 5e-324, "big": 1e300, "list": [-0.0, 5e-324, 1e300]})
@example({"\u00fc": {"\u00e9": [None, True, 0.1], "kl": "\u2200"}, "status": "ok"})
@example({"op": "kl", "params": {"l1": -0.0, "s1": 5e-324, "l2": 1.7976931348623157e308,
                                 "s2": 1.0}, "status": "ok", "value": -0.0})
def test_format_record_matches_plain_formatter(record):
    line = format_record(record)
    assert line == _plain_format(record)
    assert json.loads(line) == record


def _is_plain(record):
    """A plain closed-form job: exactly op and params, a closed op but mc, its
    params in echo order, every value an exact finite float."""
    if type(record) is not dict or set(record) != {"op", "params"}:
        return False
    op, params = record["op"], record["params"]
    return (type(op) is str and op in _OPS and op != "mc" and type(params) is dict
            and list(params) == list(_OPS[op].params)
            and all(type(v) is float and math.isfinite(v) for v in params.values()))


# Param values a job may hold: floats, and the ints, bools and infinities
# (1e999 decodes to inf) that keep a record off the ok-line step.
_PARAM_VALUES = _RECORD_FLOATS | st.integers() | st.booleans() | st.sampled_from(
    [math.inf, -math.inf])
_POSITIVE_FLOATS = st.sampled_from([5e-324, 1.0, 1.7976931348623157e308]) | st.floats(
    min_value=5e-324, allow_infinity=False)


def _valid_params(op):
    """Floats in op's domain, in echo order: positive scales, a, z and
    quadratic coefficients, b in (-1, 1] for prudnikov, 4ac > b^2 (unless
    b overflows)."""
    if op == "integral-a":
        quadratic = st.tuples(_POSITIVE_FLOATS, _POSITIVE_FLOATS, st.floats(-0.999, 0.999)).map(
            lambda t: (t[0], t[2] * 2.0 * math.sqrt(t[0]) * math.sqrt(t[1]), t[1]))
        return st.tuples(quadratic, quadratic).map(lambda q: dict(zip("abcdef", q[0] + q[1])))
    return _in_order(op, [
        st.floats(-1.0, 1.0, exclude_min=True) if (op, name) == ("prudnikov", "b")
        else _RECORD_FLOATS if name.startswith("l") else _POSITIVE_FLOATS
        for name in _OPS[op].params])


def _in_order(op, values):
    """Params of op in echo order, one value from each strategy of `values`
    (st.fixed_dictionaries draws its keys in any order)."""
    return st.tuples(*values).map(lambda v: dict(zip(_OPS[op].params, v)))


def _job_params(op):
    """Params for op that keep its record off the ok-line step, or may: any
    floats, any values, reordered, a key too many or too few."""
    valid = _valid_params(op)
    return st.one_of(
        _in_order(op, [_RECORD_FLOATS] * len(_OPS[op].params)),
        _in_order(op, [_PARAM_VALUES] * len(_OPS[op].params)),
        valid.flatmap(lambda p: st.permutations(list(p.items())).map(dict)),
        st.tuples(valid, _RECORD_STRINGS, _RECORD_FLOATS).map(lambda t: {**t[0], t[1]: t[2]}),
        valid.map(lambda p: dict(list(p.items())[1:])),
    )


_CLOSED_OPS = [op for op in _OPS if op != "mc"]
# Plain closed-form jobs in each op's domain, op and params in either order.
_PLAIN_JOBS = st.sampled_from(_CLOSED_OPS).flatmap(lambda op: st.tuples(
    st.just(op), _valid_params(op), st.booleans()).map(
    lambda t: {"params": t[1], "op": t[0]} if t[2] else {"op": t[0], "params": t[1]}))
# Job records of every op's shape, mc's among them, and near misses: other
# params, a config, a key too many, an op that is not a str or not an op.
_JOB_RECORDS = _PLAIN_JOBS | st.sampled_from(list(_OPS)).flatmap(lambda op: st.one_of(
    st.fixed_dictionaries({"op": st.just(op), "params": _valid_params(op) | _job_params(op)}),
    st.fixed_dictionaries({"op": st.just(op), "params": _valid_params(op)},
                          optional={"config": st.just({}) | _JSON_VALUES,
                                    "id": _JSON_VALUES}),
    st.fixed_dictionaries({"op": _JSON_VALUES | st.just(op.upper()),
                           "params": _valid_params(op)}),
)) | _JSON_VALUES


# core's float kernels, which the closed calls of _OPS look up per call.
_FLOAT_KERNELS = ("kl_floats", "cross_entropy_floats", "entropy_floats", "integral_a_floats",
                  "prudnikov_floats")


def _constant_kernel(*values):
    return 0.5


@given(_JOB_RECORDS)
@example({"op": "kl", "params": {"l1": -0.0, "s1": 5e-324, "l2": 1.7976931348623157e308,
                                 "s2": 1.0}})
@example({"op": "kl", "params": {"l1": 1.7976931348623157e308, "s1": 1.0,
                                 "l2": -1.7976931348623157e308, "s2": 1.0}})
@example({"op": "entropy", "params": {"l": 0, "s": 1.0}})
@example({"op": "entropy", "params": {"l": True, "s": 1.0}})
@example({"op": "entropy", "params": {"s": 1.0, "l": 0.0}})
@example({"op": "entropy", "params": {"s": 2.0, "l": 3.0}})
@example({"params": {"l": 0.0, "s": 1.0}, "op": "entropy"})
@example({"op": "entropy", "params": {"l": 0.0, "s": 1.0}, "config": {}})
@example({"op": ["entropy"], "params": {"l": 0.0, "s": 1.0}})
@example({"op": "cross-entropy", "params": {"l1": 0.0, "s1": -1.0, "l2": 0.0, "s2": 1.0}})
@example({"op": "integral-a", "params": {"a": 1.0, "b": 3.0, "c": 1.0,
                                         "d": 1.0, "e": 0.0, "f": 1.0}})
@example({"op": "integral-a", "params": {"a": 1e300, "b": 1.9e300, "c": 1e300,
                                         "d": 1.0, "e": 0.0, "f": 1.0}})
@example(cli._decode('{"op":"prudnikov","params":{"a":1e999,"b":0.5,"z":1.0}}'))
@example({"op": "mc", "params": {"l1": 0.0, "s1": 1.0, "l2": 0.0, "s2": 3.0}})
def test_ok_line_is_the_ok_line_of_plain_records_only(record):
    # The ok-line step returns what the general path prints for a plain
    # record that is ok, and None for every other record. The constant
    # kernels accept anything, so the step's own checks (types, finiteness,
    # key order) must match execute_job's without the kernels' domain checks.
    for kernel in (None, _constant_kernel):
        with mock.patch.multiple(core, **{name: kernel or getattr(core, name)
                                          for name in _FLOAT_KERNELS}):
            expected = None
            if _is_plain(record):  # only then: mc records would draw a million samples
                result = execute_job(record)
                if result["status"] == "ok":
                    expected = format_record(result)
            assert cli._ok_line(record) == expected


def test_format_record_of_subclasses_is_pinned():
    # Subclasses take the generic path: numpy scalars print 17 digits like
    # float, an OrderedDict prints like a dict.
    assert format_record({"value": np.float64(0.1), "z": np.float64(-0.0)}) == \
        '{"value":0.10000000000000001,"z":-0}'
    record = OrderedDict([("b", 1), ("a", np.float64(1e300)),
                          ("c", OrderedDict(x=[0.1, -0.0, None, True]))])
    assert format_record(record) == \
        '{"b":1,"a":1.0000000000000001e+300,"c":{"x":[0.1, -0.0, null, true]}}'


def test_record_key_order_is_stable():
    result = execute_job({"op": "kl", "params": {"s2": 1, "l2": 1, "l1": 0, "s1": 1}})
    line = format_record(result)
    assert line.index('"op"') < line.index('"params"') < line.index('"status"') < line.index('"value"')
    assert line.index('"l1"') < line.index('"s1"') < line.index('"l2"') < line.index('"s2"')


def test_execute_job_validates_records():
    assert execute_job([1, 2])["status"] == "error"
    assert "unknown operation" in execute_job({"op": "renyi", "params": {}})["error"]
    assert "missing parameters" in execute_job({"op": "kl", "params": {"l1": 0}})["error"]
    assert "unknown parameters" in execute_job(
        {"op": "entropy", "params": {"l": 0, "s": 1, "q": 2}})["error"]
    assert "must be a number" in execute_job(
        {"op": "entropy", "params": {"l": 0, "s": "wide"}})["error"]
    assert "unknown config keys" in execute_job(
        {"op": "kl", "params": {"l1": 0, "s1": 1, "l2": 0, "s2": 2},
         "config": {"mode": 3}})["error"]


def test_list_or_object_op_is_an_unknown_operation(monkeypatch, capsys):
    # An unhashable op is refused by its type before the table lookup, with the
    # message any unknown name gets, through execute_job and through batch.
    expected = f"; expected one of {sorted(_OPS)}"
    for op in (["kl"], {"x": 1}):
        record = {"op": op, "params": {"l1": 0, "s1": 1, "l2": 0, "s2": 2}}
        assert execute_job(record) == {
            "op": repr(op), "status": "error", "error": f"unknown operation {op!r}{expected}"}
        code, out = run_batch(monkeypatch, capsys, json.dumps(record) + "\n")
        assert (code, json.loads(out)) == (1, execute_job(record))


def test_execute_job_reports_overflowing_and_malformed_params(capsys):
    # JSON's 1e999 parses to inf, which no parameter accepts; params that
    # are not an object are refused by name.
    assert execute_job({"op": "kl", "params": {"l1": 1e999, "s1": 1, "l2": 0, "s2": 1}})["error"] \
        == "parameter 'l1' must be finite, got inf"
    assert execute_job({"op": "kl", "params": [0, 1, 0, 1]})["error"] \
        == "params must be an object of name -> number"
    stdin = '{"op": "kl", "params": {"l1": 0, "s1": 1e999, "l2": 0, "s2": 1}}\n'
    with mock.patch("sys.stdin", io.StringIO(stdin)):
        assert main(["batch"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "op": "kl", "status": "error", "error": "parameter 's1' must be finite, got inf"}


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ParameterError, match="unknown suite 'nope'; choose from"):
        run_suite("nope", None, 1)


def test_execute_job_edge_cases_are_pinned():
    entropy = {"op": "entropy", "params": {"l": np.float64(0.5), "s": 1}}
    result = execute_job(entropy)
    assert result["status"] == "ok"
    assert type(result["params"]["l"]) is float
    assert format_record(result) == \
        '{"op":"entropy","params":{"l":0.5,"s":1},"status":"ok","value":2.5310242469692907}'
    assert execute_job({"op": "entropy", "params": {"l": True, "s": 1}}) == {
        "op": "entropy", "status": "error",
        "error": "parameter 'l' must be a number, got True"}
    assert execute_job({"op": "entropy", "params": {"l": 10**400, "s": 1}}) == {
        "op": "entropy", "status": "error", "error": "int too large to convert to float"}
    assert execute_job({"op": "entropy", "params": {"l": 0, "s": 1}, "config": None}) == {
        "op": "entropy", "params": {"l": 0.0, "s": 1.0}, "status": "error",
        "error": "config must be an object"}
    assert execute_job({"op": "kl", "params": {"l1": 0, "q": 1}})["error"] == \
        "unknown parameters ['q'] for operation 'kl'"
    assert execute_job({"op": "kl", "params": {"l1": 0, "l2": 0}})["error"] == \
        "missing parameters ['s1', 's2'] for operation 'kl'"


def test_numeric_records_lie_within_their_own_estimate():
    # The golden integral-a record and a cross-entropy whose closed-form
    # shift is -458 while the integral is 0: the estimate covers the
    # shift's rounding, with no allowance in ulps.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    golden = json.loads(BATCH_GOLDEN.splitlines()[4])
    record = execute_job(json.loads(BATCH_INPUT.splitlines()[4]))
    assert record == golden
    a, b, c, d, e, f = (mp.mpf(golden["params"][k]) for k in "abcdef")
    v1, w1 = -b / (2 * a), mp.sqrt(4 * a * c - b * b) / (2 * a)
    v2, w2 = -e / (2 * d), mp.sqrt(4 * d * f - e * e) / (2 * d)
    exact = mp.pi / (a * w1) * (mp.log(d) + mp.log((w1 + w2) ** 2 + (v1 - v2) ** 2))
    assert abs(golden["value"] - exact) <= golden["diagnostics"]["error_estimate"]

    record = execute_job({"op": "cross-entropy", "config": {"numeric": True},
                          "params": {"l1": 0, "s1": 1e-200, "l2": 0, "s2": 1e-200}})
    s = mp.mpf(1e-200)
    exact = mp.log(4 * mp.pi * s)
    assert record["diagnostics"]["converged"]
    assert abs(record["value"] - exact) <= record["diagnostics"]["error_estimate"]


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------

def test_batch_looks_up_execute_and_format_through_the_module(monkeypatch, capsys):
    # Tracers wrap cli.execute_job and cli.format_record by rebinding the
    # module attributes. Only records off the ok-line step (these are not
    # plain closed-form jobs) go through them, and batch must call whatever
    # they are bound to.
    calls = []

    def execute(record):
        calls.append("execute")
        return {"status": "ok", "value": record["n"]}

    def fmt(record):
        calls.append("format")
        return f"formatted {record['value']}"

    monkeypatch.setattr(cli, "execute_job", execute)
    monkeypatch.setattr(cli, "format_record", fmt)
    code, out = run_batch(monkeypatch, capsys, '{"n":1}\n{"n":2}\n')
    assert code == 0
    assert out == "formatted 1\nformatted 2\n"
    assert calls == ["execute", "format"] * 2


def _count_execute_job(monkeypatch):
    calls = []

    def execute(record):
        calls.append(record)
        return execute_job(record)

    monkeypatch.setattr(cli, "execute_job", execute)
    return calls


def test_plain_ok_records_never_reach_execute_job(monkeypatch, capsys):
    # A seeded stream of plain records of every closed op, all ok, prints
    # what the general path prints without calling it; on the golden input,
    # where no line is plain (int params, mc, a config), each line calls it once.
    rng = np.random.Generator(np.random.PCG64(20261019))
    records = [{"op": op, "params": {k: float(v) for k, v in _draw_params(rng, op).items()}}
               for op in _CLOSED_OPS * 200]
    records = [r for r in records if execute_job(r)["status"] == "ok"]
    assert {r["op"] for r in records} == set(_CLOSED_OPS) and len(records) > 800
    expected = "".join(format_record(execute_job(r)) + "\n" for r in records)
    calls = _count_execute_job(monkeypatch)
    code, out = run_batch(monkeypatch, capsys, "".join(json.dumps(r) + "\n" for r in records))
    assert (code, calls) == (0, [])
    assert out == expected

    code, out = run_batch(monkeypatch, capsys, BATCH_INPUT)
    assert (code, out) == (0, BATCH_GOLDEN)
    inputs = [json.loads(line) for line in BATCH_INPUT.splitlines()]
    assert calls == [r for r in inputs if not _is_plain(r)] == inputs


def test_batch_ok_line_calls_the_kernel_through_core(monkeypatch, capsys):
    # The closed calls of _OPS look core's float kernels up per call (the
    # _Op docstring), so rebinding core.kl_floats reaches the ok-line step.
    text = '{"op":"kl","params":{"l1":0.0,"s1":1.0,"l2":1.0,"s2":1.0}}\n'
    calls = _count_execute_job(monkeypatch)
    monkeypatch.setattr(core, "kl_floats", lambda *values: sum(values) / 8)
    code, out = run_batch(monkeypatch, capsys, text)
    assert (code, calls) == (0, [])
    assert out == ('{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1},'
                   '"status":"ok","value":0.375}\n')


def test_batch_strips_only_json_whitespace(monkeypatch, capsys):
    # str.strip() would also drop U+00A0, U+0085, U+001C-U+001F and U+2028;
    # a line padded with them is not JSON text, and a line of them only is
    # not blank. Space, tab and CR around a record are JSON whitespace.
    record = '{"op":"entropy","params":{"l":0,"s":1}}'
    pads = ["\u00a0" + record + "\x1c", "\u2028" + record, record + "\x85", "\x1d\x1e\x1f"]
    text = "".join(line + "\n" for line in [" \t" + record + "\r", *pads, " \t\r"])
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["status"] == "ok"
    assert [r["input"] for r in lines[1:]] == pads
    assert all(r["error"].startswith("malformed record: ") for r in lines[1:])


def test_batch_happy_path_two_records(monkeypatch, capsys):
    text = ('{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":0,"s2":2}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["status"] == "ok" for line in lines)


def test_batch_unknown_op_continues_stream(monkeypatch, capsys):
    text = ('{"op":"renyi","params":{"alpha":2}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["status"] == "error"
    assert lines[1]["status"] == "ok"


def test_batch_mc_negative_seed_names_the_seed(monkeypatch, capsys):
    text = ('{"op":"mc","params":{"l1":0,"s1":1,"l2":0,"s2":3},"config":{"samples":100,"seed":-1}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["status"] == "error"
    assert lines[0]["error"] == "seed must be >= 0, got -1"
    assert lines[1]["status"] == "ok"


def test_batch_mc_unallocatable_samples_keeps_stream(monkeypatch, capsys):
    # 1e15 samples need 8 PB. That exceeds the default user address space
    # of Linux on x86-64 and arm64 (47 or 48 bits, 128-256 TiB), so the
    # allocation fails before it touches any memory.
    text = ('{"op":"mc","params":{"l1":0,"s1":1,"l2":0,"s2":3},'
            '"config":{"samples":1000000000000000}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["status"] == "error"
    assert lines[0]["config"] == {"samples": 1000000000000000}
    assert lines[1]["status"] == "ok"


def test_mc_whose_log_ratios_overflow_is_an_error_record():
    # beta*beta or (t - alpha)^2 overflows in p1's frame (inf), or beta itself
    # does (inf/inf, nan): the record reports the non-finite estimate, and
    # numpy's RuntimeWarning (an error under this suite's warning filter) is
    # not raised.
    for params, value in (({"l1": 0, "s1": 1, "l2": 0, "s2": 1e160}, "inf"),
                          ({"l1": 0, "s1": 1e-300, "l2": 0, "s2": 1e300}, "nan"),
                          ({"l1": 0, "s1": 1, "l2": 1e200, "s2": 1}, "inf"),
                          ({"l1": 0, "s1": 1, "l2": 1e160, "s2": 1}, "inf")):
        record = execute_job({"op": "mc", "params": params, "config": {"samples": 1000}})
        assert record["status"] == "error"
        assert record["error"] == f"result is not finite: {value}"


def test_integral_a_whose_guard_overflows():
    # 4*a*c - b^2 is inf - inf = NaN for both triples: the invalid one
    # (4ac < b^2) gets the guard message, the valid one a non-finite result.
    invalid = {"a": 1e300, "b": 3e300, "c": 1e300, "d": 1, "e": 0, "f": 1}
    record = execute_job({"op": "integral-a", "params": invalid})
    assert record["error"] == ("quadratic (1e+300, 3e+300, 1e+300) "
                               "must satisfy 4*a*c - b^2 > 0, got nan")
    valid = {"a": 1e300, "b": 1.9e300, "c": 1e300, "d": 1, "e": 0, "f": 1}
    record = execute_job({"op": "integral-a", "params": valid})
    assert record["error"] == "result is not finite: nan"


def test_batch_cross_entropy_and_entropy_over_the_full_range(monkeypatch, capsys):
    text = ('{"op":"cross-entropy","params":{"l1":0,"s1":1e300,"l2":0,"s2":2e300}}\n'
            '{"op":"cross-entropy","params":{"l1":0,"s1":1e-200,"l2":0,"s2":1e-200}}\n'
            '{"op":"entropy","params":{"l":0,"s":1e-300}}\n'
            '{"op":"entropy","params":{"l":0,"s":5e-324}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 0
    values = [json.loads(line)["value"] for line in out.splitlines()]
    assert values == pytest.approx([693.42, -457.99, -688.24, -741.91], abs=0.01)


def test_batch_malformed_line_reports_input(monkeypatch, capsys):
    code, out = run_batch(monkeypatch, capsys, "not json\n")
    assert code == 1
    record = json.loads(out)
    assert record["status"] == "error"
    assert record["input"] == "not json"
    assert "malformed record" in record["error"]


def test_batch_error_records_echo_params(monkeypatch, capsys):
    text = '{"op":"kl","params":{"l1":0,"s1":1,"l2":0,"s2":-1}}\n'
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    record = json.loads(out)
    assert record["op"] == "kl"
    assert record["status"] == "error"


def test_batch_byte_identical_and_matches_golden(monkeypatch, capsys):
    code, out1 = run_batch(monkeypatch, capsys, BATCH_INPUT)
    assert code == 0
    code, out2 = run_batch(monkeypatch, capsys, BATCH_INPUT)
    assert code == 0
    assert out1 == out2
    assert out1 == BATCH_GOLDEN


def test_batch_round_trip(monkeypatch, capsys):
    _code, out = run_batch(monkeypatch, capsys, BATCH_INPUT)
    for line, source in zip(out.splitlines(), BATCH_INPUT.splitlines()):
        parsed = json.loads(line)
        original = json.loads(source)
        assert parsed["op"] == original["op"]
        assert parsed["params"] == {k: float(v) for k, v in original["params"].items()}
        if "config" in original:
            assert parsed["config"] == original["config"]
        assert format_record(parsed) == line


# ---------------------------------------------------------------------------
# differential test: the batch stream against a per-line reference built from
# the dataclass functions and _plain_format
# ---------------------------------------------------------------------------

def _pair_of(p):
    return CauchyDist(p["l1"], p["s1"]), CauchyDist(p["l2"], p["s2"])


def _quadratics_of(p):
    return PositiveQuadratic(p["a"], p["b"], p["c"]), PositiveQuadratic(p["d"], p["e"], p["f"])


def _quadrature(result):
    return result.value, {"error_estimate": result.error_estimate,
                          "evaluations": result.evaluations, "converged": result.converged}


# Per op: parameter names in echo order, the closed form and the quadrature,
# each returning (value, diagnostics or None), from the public dataclass API.
_REFERENCE_OPS = {
    "kl": (("l1", "s1", "l2", "s2"), lambda p, c: (kl_closed(*_pair_of(p)), None),
           lambda p: _quadrature(oracle.kl_numeric(*_pair_of(p)))),
    "cross-entropy": (("l1", "s1", "l2", "s2"),
                      lambda p, c: (cross_entropy_closed(*_pair_of(p)), None),
                      lambda p: _quadrature(oracle.cross_entropy_numeric(*_pair_of(p)))),
    "mc": (("l1", "s1", "l2", "s2"), lambda p, c: _monte_carlo(p, c), None),
    "entropy": (("l", "s"), lambda p, c: (entropy_closed(CauchyDist(p["l"], p["s"])), None), None),
    "integral-a": (("a", "b", "c", "d", "e", "f"),
                   lambda p, c: (integral_a(*_quadratics_of(p)), None),
                   lambda p: _quadrature(oracle.integral_a_numeric(*_quadratics_of(p)))),
    "prudnikov": (("a", "b", "z"), lambda p, c: (prudnikov_special(p["a"], p["b"], p["z"]), None),
                  None),
}


def _monte_carlo(p, config):
    result = oracle.kl_monte_carlo(*_pair_of(p), config["samples"], config["seed"])
    return result.estimate, {"standard_error": result.standard_error,
                             "samples": result.samples, "seed": result.seed}


def _reject_non_finite(name):
    raise ValueError(f"non-finite number {float(name)!r}")


def _reference_record(line):
    """The result record of one batch line stripped of JSON whitespace, from
    the public dataclass functions."""
    try:
        record = json.loads(line, parse_constant=_reject_non_finite)
    except ValueError as exc:
        return {"input": line, "status": "error", "error": f"malformed record: {exc}"}
    if not isinstance(record, dict):
        return {"input": line, "status": "error", "error": "record must be a JSON object"}
    op, raw = record["op"], record["params"]
    if op not in _REFERENCE_OPS:
        return {"op": op, "status": "error", "error": f"unknown operation {op!r}; expected one "
                "of ['cross-entropy', 'entropy', 'integral-a', 'kl', 'mc', 'prudnikov']"}
    names, closed, numeric = _REFERENCE_OPS[op]
    missing = [k for k in names if k not in raw]
    if missing:
        return {"op": op, "status": "error",
                "error": f"missing parameters {missing} for operation {op!r}"}
    for k in names:
        if not isinstance(raw[k], (int, float)) or isinstance(raw[k], bool):
            return {"op": op, "status": "error",
                    "error": f"parameter {k!r} must be a number, got {raw[k]!r}"}
    params = {k: float(raw[k]) for k in names}
    result = {"op": op, "params": params}
    config = record.get("config", {})  # written in echo order
    if config:
        result["config"] = config
    try:
        if config.get("numeric") and numeric:
            value, diagnostics = numeric(params)
        else:
            value, diagnostics = closed(params, {"samples": 1_000_000, "seed": 0, **config})
        if not math.isfinite(value):
            raise ArithmeticError(f"result is not finite: {value!r}")
    except (CauchyKLError, ValueError, ArithmeticError) as exc:
        return {**result, "status": "error", "error": str(exc)}
    result.update(status="ok", value=value)
    if diagnostics is not None:
        result["diagnostics"] = diagnostics
    return result


# Parameter values at the ends of the double range and of JSON's number forms.
_EDGE_VALUES = [0, 1, 3, -0.0, 0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
                -1.7976931348623157e308]


def _draw_value(rng, scale, wide=True):
    """A location (scale False) or scale: in range, or when wide sometimes anywhere."""
    u = rng.random() if wide else 1.0
    if u < 0.1:
        return _EDGE_VALUES[rng.integers(len(_EDGE_VALUES))]
    if u < 0.3:
        magnitude = float(10.0 ** rng.uniform(-300.0, 300.0))
        return magnitude if scale or rng.random() < 0.5 else -magnitude
    return float(rng.uniform(0.01, 100.0) if scale else rng.uniform(-100.0, 100.0))


def _draw_params(rng, op, wide=True):
    if op in ("kl", "cross-entropy", "mc"):
        return {"l1": _draw_value(rng, False, wide), "s1": _draw_value(rng, True, wide),
                "l2": _draw_value(rng, False, wide), "s2": _draw_value(rng, True, wide)}
    if op == "entropy":
        return {"l": _draw_value(rng, False), "s": _draw_value(rng, True)}
    if op == "prudnikov":
        b = 1.0 if rng.random() < 0.05 else float(rng.uniform(-1.1, 1.1))
        return {"a": _draw_value(rng, True), "b": b, "z": _draw_value(rng, True)}
    params = {}
    for names in (("a", "b", "c"), ("d", "e", "f")):
        a, c = _draw_value(rng, True, wide), _draw_value(rng, True, wide)
        # |t| beyond 1 breaks the guard 4*a*c - b^2 > 0; b is clamped to stay finite.
        b = float(rng.uniform(-1.05, 1.05)) * 2.0 * math.sqrt(abs(a)) * math.sqrt(abs(c))
        b = max(-1e308, min(b, 1e308))
        params.update(zip(names, (a, b, c)))
    return params


def _invalid_record(rng, k):
    """An invalid record of one of the five kinds of the batch-closed benchmark stream, in range."""
    kind = k % 5
    if kind == 0:
        return {"op": "kl-divergence", "params": _draw_params(rng, "kl", False)}
    if kind == 1:
        params = _draw_params(rng, "kl", False)
        del params["s2"]
        return {"op": "kl", "params": params}
    if kind == 2:
        params = _draw_params(rng, "entropy", False)
        params["s"] = repr(params["s"])
        return {"op": "entropy", "params": params}
    if kind == 3:
        params = _draw_params(rng, "cross-entropy", False)
        params["s1"] = -params["s1"] if k % 2 else 0.0
        return {"op": "cross-entropy", "params": params}
    params = _draw_params(rng, "integral-a", False)
    params["e"] = float(rng.uniform(1.01, 3.0)) * 2.0 * math.sqrt(params["d"] * params["f"])
    return {"op": "integral-a", "params": params}


# Closed records carry these configs now and then: closed forms check them and
# echo them, but do not read them (an empty config is not echoed).
_CLOSED_CONFIGS = [{}, {"numeric": False}, {"rtol": 1e-3, "max_depth": 4}, {"samples": 7, "seed": 3}]
_MALFORMED_LINES = ["not json", '{"op":"kl"} x', '{"a":1}{"b":2}', "NaN", "[1e999]", "["]
# Characters str.strip() drops that are not JSON whitespace (RFC 8259, section 2).
_NON_JSON_SPACE = "\u00a0\u0085\u001c\u001d\u001e\u001f\u2028"
_JSON_SPACE = " \t\r\n"


def _differential_stream(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    lines = []
    for k in range(count):
        u = rng.random()
        if u < 0.009:  # quadrature and Monte-Carlo records, in range
            op = ["kl", "cross-entropy", "integral-a"][k % 3]
            record = {"op": op, "params": _draw_params(rng, op, False),
                      "config": {"numeric": True}}
        elif u < 0.012:
            record = {"op": "mc", "params": _draw_params(rng, "mc", False),
                      "config": {"samples": 2000, "seed": k}}
        elif u < 0.05:
            record = _invalid_record(rng, k)
        else:
            op = _CLOSED_OPS[rng.integers(len(_CLOSED_OPS))]
            record = {"op": op, "params": _draw_params(rng, op)}
            if rng.random() < 0.05:
                record["config"] = _CLOSED_CONFIGS[rng.integers(len(_CLOSED_CONFIGS))]
            if rng.random() < 0.05:  # keys out of echo order
                record["params"] = dict(reversed(record["params"].items()))
        line = json.dumps(record, separators=(",", ":") if rng.random() < 0.5 else None)
        lines.append(f"  {line}\t" if rng.random() < 0.02 else line)
    for pad in _NON_JSON_SPACE:  # records padded with them are malformed
        line = lines[int(rng.integers(len(lines)))]
        lines.insert(int(rng.integers(len(lines) + 1)), pad + line + pad)
    for bad in _MALFORMED_LINES + ["", "   ", _NON_JSON_SPACE]:
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
    return lines


def test_batch_matches_dataclass_reference_line_by_line(monkeypatch, capsys):
    # The lean record path (core's float kernels, per-op line templates,
    # the scanner) prints, byte for byte, what the public dataclass
    # functions and the plain formatter give for every line.
    lines = _differential_stream(20261018, 2000)
    code, out = run_batch(monkeypatch, capsys, "".join(line + "\n" for line in lines))
    expected = [_reference_record(line.strip(_JSON_SPACE)) for line in lines
                if line.strip(_JSON_SPACE)]
    assert code == 1
    assert {r["status"] for r in expected} == {"ok", "error"}
    assert {r["op"] for r in expected if r["status"] == "ok"} == set(_OPS)
    assert out.splitlines() == [_plain_format(r) for r in expected]
    assert out == "".join(_plain_format(r) + "\n" for r in expected)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_batch_non_finite_and_arithmetic_errors_keep_stream(monkeypatch, capsys):
    # The integral-a and NaN records are errors; the last record must
    # still run after them. Two identical distributions at s = 1e-200 or
    # s = 1e300 have KL exactly 0.
    text = ('{"op":"kl","params":{"l1":0,"s1":1e-200,"l2":0,"s2":1e-200}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1e300,"l2":0,"s2":1e300}}\n'
            '{"op":"integral-a","params":{"a":1e200,"b":0,"c":1e200,"d":1,"e":0,"f":1}}\n'
            '{"op":"kl","params":{"l1":NaN,"s1":1,"l2":0,"s2":1}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert [r["status"] for r in lines] == ["ok", "ok", "error", "error", "ok"]
    assert lines[0]["value"] == lines[1]["value"] == 0.0
    assert all("nan" in r["error"] for r in lines[2:4])
    assert lines[4]["value"] == kl_closed(CauchyDist(0, 1), CauchyDist(1, 1))


def _run_cli(args, stdin):
    """`python -m cauchykl.cli ARGS` in a fresh process, with stdin from a file."""
    env = dict(os.environ, PYTHONPATH=str(Path(cauchykl.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "cauchykl.cli", *args], stdin=stdin,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_batch_full_range_numeric_records_keep_stream_and_stderr(tmp_path):
    # Quadrature over parameters whose squares underflow or overflow. In
    # the frame of p1 the scales 1e-200 and 1e300 are harmless and the
    # records are exact to within their error estimates; a gap of 1e200
    # still overflows there, which gives an error record naming the frame
    # abscissa of the first non-finite sample. Nothing reaches stderr, and
    # the last record still runs.
    numeric = ',"config":{"numeric":true}}'
    stream = tmp_path / "stream.jsonl"
    stream.write_text(
        '{"op":"kl","params":{"l1":0,"s1":1e-200,"l2":0,"s2":1e-200}' + numeric + "\n"
        '{"op":"kl","params":{"l1":0,"s1":1e300,"l2":0,"s2":2e300}' + numeric + "\n"
        '{"op":"kl","params":{"l1":0,"s1":1,"l2":1e200,"s2":1}' + numeric + "\n"
        '{"op":"cross-entropy","params":{"l1":0,"s1":1e-200,"l2":0,"s2":1e-200}' + numeric + "\n"
        '{"op":"cross-entropy","params":{"l1":0,"s1":1e300,"l2":0,"s2":2e300}' + numeric + "\n"
        '{"op":"cross-entropy","params":{"l1":0,"s1":1,"l2":1e200,"s2":1}' + numeric + "\n"
        '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}' + numeric + "\n")
    with stream.open() as stdin:
        proc = _run_cli(["batch"], stdin)
        out, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1
    lines = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert [r["status"] for r in lines] == ["ok", "ok", "error"] * 2 + ["ok"]
    assert all(r["error"].startswith("integrand returned non-finite value")
               for r in (lines[2], lines[5]))
    assert lines[6]["diagnostics"]["evaluations"] == 32

    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for record in lines[:2] + lines[3:5]:
        params = record["params"]
        l1, s1, l2, s2 = (mp.mpf(params[k]) for k in ("l1", "s1", "l2", "s2"))
        q = (s1 + s2) ** 2 + (l1 - l2) ** 2
        exact = float(mp.log(q / (4 * s1 * s2)) if record["op"] == "kl"
                      else mp.log(mp.pi * q / s2))
        bound = record["diagnostics"]["error_estimate"] + 4.0 * math.ulp(exact)
        assert record["diagnostics"]["converged"]
        assert abs(record["value"] - exact) <= bound, (record, exact)


def test_batch_rejects_non_finite_json_constants(monkeypatch, capsys):
    # json.loads accepts NaN and Infinity; echoing them would print bare
    # nan/inf, so such a line is a malformed record.
    text = ('NaN\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1},"config":{"atol":NaN}}\n'
            '{"op":"mc","params":{"l1":0,"s1":1,"l2":1,"s2":1},"config":{"samples":Infinity}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert [r["status"] for r in lines] == ["error", "error", "error", "ok"]
    for record, source in zip(lines[:3], text.splitlines()):
        assert record["input"] == source
        assert record["error"].startswith("malformed record: non-finite number")


def test_batch_echoes_non_object_lines_as_read(monkeypatch, capsys):
    # 1e999 is a number literal, not a constant: it decodes to inf. A
    # non-object line is echoed as the raw string, and a config value
    # holding inf fails its type check before the config is echoed.
    text = ('1e999\n'
            '[1e999]\n'
            '[1, 2]\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1},"config":{"seed":[1e999]}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert [r["status"] for r in lines] == ["error"] * 4 + ["ok"]
    for record, source in zip(lines[:3], text.splitlines()):
        assert record["input"] == source
        assert record["error"] == "record must be a JSON object"
    assert "config" not in lines[3]
    assert lines[3]["error"] == "config 'seed' must be an integer, got [inf]"
    assert execute_job([1, 2])["input"] == [1, 2]


# Per config key: values of the wrong JSON type.
WRONG_TYPED_CONFIG = {
    "numeric": ("a boolean", [[True], "true", 1, 0.0]),
    "rtol": ("a number", [[1e-3], "1e-3", True]),
    "atol": ("a number", [[1e-14], "1e-14", False]),
    "max_depth": ("an integer", [[12], "12", True, 12.0]),
    "samples": ("an integer", [[5000], "5000", True, 5000.0]),
    "seed": ("an integer", [[1], "1", False, 1.0]),
}


def test_wrong_typed_config_covers_every_key():
    assert list(WRONG_TYPED_CONFIG) == list(_CONFIG)


@pytest.mark.parametrize("key, kind, value", [
    (key, kind, value) for key, (kind, values) in WRONG_TYPED_CONFIG.items() for value in values
])
def test_wrong_typed_config_is_rejected_before_echo(key, kind, value):
    # Quadrature keys ride on a numeric kl; the others go to a closed-form
    # kl, which ignores them but checks them all the same.
    config = {"numeric": True, key: value} if key in ("rtol", "atol", "max_depth") else {key: value}
    record = execute_job({"op": "kl", "params": {"l1": 0, "s1": 1, "l2": 1, "s2": 1},
                          "config": config})
    json.loads(format_record(record), parse_constant=_reject_constant)
    assert record["status"] == "error"
    assert record["error"] == f"config {key!r} must be {kind}, got {value!r}"
    assert "config" not in record


def test_parameter_errors_come_before_config_range_errors(capsys):
    assert main(["kl", "--l1", "0", "--s1", "1", "--l2", "1", "--s2", "0",
                 "--numeric", "--rtol", "-1"]) == 1
    assert "scale must be positive" in json.loads(capsys.readouterr().err)["error"]
    record = execute_job({"op": "mc", "params": {"l1": 0, "s1": 1, "l2": 1, "s2": 1},
                          "config": {"samples": 1}})
    assert record["error"] == "samples must be >= 2, got 1"


def test_non_finite_config_is_rejected_before_echo(capsys):
    assert main(["kl", "--l1", "0", "--s1", "1", "--l2", "1", "--s2", "1",
                 "--numeric", "--rtol", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err, parse_constant=_reject_constant)
    assert record["error"] == "config 'rtol' must be finite, got nan"
    assert "config" not in record
    for key, value in (("atol", math.nan), ("samples", math.inf), ("rtol", -math.inf)):
        record = execute_job({"op": "kl", "params": {"l1": 0, "s1": 1, "l2": 1, "s2": 1},
                              "config": {"numeric": True, key: value}})
        json.loads(format_record(record), parse_constant=_reject_constant)
        assert record["status"] == "error"
        assert record["error"] == f"config {key!r} must be finite, got {value!r}"


def test_batch_into_closed_pipe_exits_without_traceback(tmp_path):
    # `cauchykl batch < stream | head -1`: the reader leaves after one line.
    stream = tmp_path / "stream.jsonl"
    stream.write_text('{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n' * 20000)
    with stream.open() as stdin:
        proc = _run_cli(["batch"], stdin)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=120)
    assert json.loads(first)["status"] == "ok"
    assert err == b""
    assert code == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pipe_leaves_no_open_descriptor(monkeypatch):
    # In process, stdout a pipe whose reader has gone: main points stdout
    # at devnull and must close the descriptor it opened to do so.
    def call():
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr("sys.stdout", stdout)
            assert main(["kl", "--l1", "0", "--s1", "1", "--l2", "1", "--s2", "1"]) == 1
            monkeypatch.undo()

    call()  # build the parser and load everything a call uses first
    before = len(os.listdir("/proc/self/fd"))
    call()
    call()
    assert len(os.listdir("/proc/self/fd")) == before


# Per op: the single-shot flags and the batch job they stand for.
SINGLE_VS_BATCH = {
    "kl": (["--l1", "0", "--s1", "1", "--l2", "1", "--s2", "2",
            "--numeric", "--rtol", "1e-8", "--max-depth", "12"],
           {"params": {"l1": 0, "s1": 1, "l2": 1, "s2": 2},
            "config": {"numeric": True, "rtol": 1e-8, "max_depth": 12}}),
    "cross-entropy": (["--l1", "-1", "--s1", "2", "--l2", "3", "--s2", "0.5",
                       "--numeric", "--rtol", "1e-9", "--max-depth", "15"],
                      {"params": {"l1": -1, "s1": 2, "l2": 3, "s2": 0.5},
                       "config": {"numeric": True, "rtol": 1e-9, "max_depth": 15}}),
    "mc": (["--l1", "0", "--s1", "1", "--l2", "0", "--s2", "3", "--samples", "5000", "--seed", "0"],
           {"params": {"l1": 0, "s1": 1, "l2": 0, "s2": 3},
            "config": {"samples": 5000, "seed": 0}}),
    "entropy": (["--l", "2", "--s", "3"], {"params": {"l": 2, "s": 3}}),
    "integral-a": (["--a", "2", "--b", "1", "--c", "3", "--d", "1", "--e", "-1", "--f", "5",
                    "--numeric", "--rtol", "1e-8", "--max-depth", "10"],
                   {"params": {"a": 2, "b": 1, "c": 3, "d": 1, "e": -1, "f": 5},
                    "config": {"numeric": True, "rtol": 1e-8, "max_depth": 10}}),
    "prudnikov": (["--a", "2", "--b", "0.5", "--z", "1"], {"params": {"a": 2, "b": 0.5, "z": 1}}),
}


@pytest.mark.parametrize("op", list(_OPS))
def test_single_shot_matches_batch(op, monkeypatch, capsys):
    flags, job = SINGLE_VS_BATCH[op]
    assert main([op, *flags]) == 0
    single = capsys.readouterr().out
    code, batch = run_batch(monkeypatch, capsys, json.dumps({"op": op, **job}) + "\n")
    assert code == 0
    assert single == batch


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

def test_verify_certificate_suite(capsys):
    code = main(["verify", "--suite", "certificate", "--count", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary["status"] == "pass"
    assert summary["failed"] == 0
    checks = {line["check"] for line in lines[:-1]}
    assert "telescoping residual" in checks
    assert "transcription checksums" in checks


def test_verify_ode_suite(capsys):
    code = main(["verify", "--suite", "ode", "--count", "2", "--seed", "3"])
    assert code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {c["check"] for c in lines[:-1]} == {"ode residual of dA/dd", "integration constant"}


def test_verify_closed_vs_quadrature_suite(capsys):
    code = main(["verify", "--suite", "closed-vs-quadrature", "--count", "3", "--seed", "5"])
    assert code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(c["status"] == "pass" for c in lines)


def test_verify_monte_carlo_suite(capsys):
    code = main(["verify", "--suite", "monte-carlo", "--count", "2", "--seed", "9",
                 "--samples", "20000"])
    assert code == 0


def test_verify_rejects_zero_count(capsys):
    code = main(["verify", "--suite", "all", "--count", "0"])
    captured = capsys.readouterr()
    assert code == 1
    record = json.loads(captured.err)
    assert "count must be >= 1" in record["error"]


@pytest.mark.parametrize("suite", [closed_vs_quadrature_suite, monte_carlo_suite])
def test_float_suites_refuse_a_count_below_one(suite):
    # A count of 0 checked nothing and passed; both suites now refuse it as run_suite does.
    for count in (0, -1, True):
        with pytest.raises(ParameterError, match=f"count must be >= 1, got {count!r}"):
            suite(count, 1)


def test_verify_rejects_negative_seed(capsys):
    code = main(["verify", "--suite", "ode", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err) == {"status": "error", "error": "seed must be >= 0, got -1"}


def test_verify_monte_carlo_unallocatable_samples_is_an_error_record(capsys):
    # As in test_batch_mc_unallocatable_samples_keeps_stream: 1e15 samples
    # need 8 PB, beyond the 47- or 48-bit user address space of Linux on
    # x86-64 and arm64, so the allocation fails before it touches memory.
    code = main(["verify", "--suite", "monte-carlo", "--count", "1",
                 "--samples", "1000000000000000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["status"] == "error"
    assert "allocate" in record["error"]


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--suite", "certificate", "--count", "2", "--seed", "11"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == out1


def test_exact_suites_draw_no_random_numbers():
    # In a fresh interpreter: the exact suites never import numpy.random,
    # and their checks read the same for any --seed. Only the summary
    # record, which echoes the arguments, names the seed.
    script = ("import sys\nfrom cauchykl.cli import main\n"
              "for suite in ('certificate', 'ode'):\n"
              "    main(['verify', '--suite', suite, '--seed', sys.argv[1]])\n"
              "print('numpy.random' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cauchykl.__file__).resolve().parents[1]))
    runs = [subprocess.run([sys.executable, "-c", script, seed], capture_output=True, text=True,
                           env=env, check=True) for seed in ("1", "7")]
    assert [run.stderr for run in runs] == ["False\n", "False\n"]
    records = [[json.loads(line) for line in run.stdout.splitlines()] for run in runs]
    assert records[0] != records[1]
    for record in records[1]:
        if "seed" in record:
            record["seed"] = 1
    assert records[0] == records[1]
    assert [r["check"] for r in records[0] if "check" in r] == [
        "transcription checksums", "telescoping residual", "psi tail limit",
        "ode residual of dA/dd", "integration constant"]


def test_runtime_imports_no_test_only_package():
    # mpmath, sympy, hypothesis and pytest are test tools: importing the package,
    # its CLI and its verification modules in a fresh interpreter loads none.
    script = ("import sys, cauchykl, cauchykl.cli, cauchykl.suites, cauchykl.certificate\n"
              "print([m for m in ('mpmath', 'sympy', 'hypothesis', 'pytest') if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cauchykl.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout == "[]\n"


# sha256 of the whole stdout of `verify --suite SUITE --seed SEED` at the
# default counts, recorded when the exact checks moved from random points
# to derived proof grids, and for `ode` again when its grids came to span
# e^2 and leave out the factor m^k, and when the integration-constant
# check's nine integrals moved to the trapezoidal rule, when that check's
# detail came to name its worst (d, e, f), and when the ODE check came to
# prove the factorization G1*G2 = (d-f)^2 + e^2 too, and for both when the
# (e, f) and (e, m) pairs came to form staircases sized by total degree and
# each proof came to name its off-grid point, and for both when the tail
# limit, the ODE, the residues and the factorization came to be proved as
# polynomial identities, and again when the telescoping identity did too and
# every proof came to compare two sides by a Kronecker substitution; any
# change to a ring, a bound or a figure shows here.
VERIFY_GOLDEN_SHA256 = {
    ("certificate", 1): "5be9b2b4356b0b23b6bd57e55bb6c1065f63deab10c341d9e1dfb4d6096f8177",
    ("certificate", 1501): "3555cc1e0ed0869614c90b28ea4183658e89d0169596b026725f4fafd90b18a4",
    ("ode", 1): "7c1ccc8e3c7dc02b8a8393883542b1c2f26b33ac0dde35cf5401bbc6eb6f97c5",
    ("ode", 1501): "e5811087a813300757b9c4c2df934a81a9ed16fa6f8399288d566edc06b722c1",
}


@pytest.mark.parametrize("suite,seed", sorted(VERIFY_GOLDEN_SHA256))
def test_verify_exact_suites_match_golden(suite, seed, capsys):
    assert main(["verify", "--suite", suite, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN_SHA256[suite, seed], out


def test_exact_check_details_start_with_their_point_counts(capsys):
    # A grid proof's detail once started "N/N exact-zero", N its grid's point count,
    # which the benchmark's checker reads as its exact-point count. Every exact
    # identity is now a polynomial identity, with no points to count: no detail
    # claims a count, and each proof names its ring instead.
    rings = {}
    for suite in ("certificate", "ode"):
        assert main(["verify", "--suite", suite]) == 0
        for record in map(json.loads, capsys.readouterr().out.splitlines()[:-1]):
            assert not re.search(r"\d+/\d+ exact-zero", record["detail"])
            found = re.findall(r": proved in (Z\[[a-z, ]+\])", record["detail"])
            if found:
                rings[record["check"]] = found
    assert rings == {"telescoping residual": ["Z[d, e, f, x]"], "psi tail limit": ["Z[d, e, f]"],
                     "ode residual of dA/dd": ["Z[d, e, m]"] * 3}


def _cli_record(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _witness_flags(detail):
    """--l1 .. --s2 flags of the pair a float check's detail ends with."""
    values = detail.split("(l1, s1, l2, s2) = (")[-1].rstrip(")").split(", ")
    return [arg for name, value in zip(("l1", "s1", "l2", "s2"), values)
            for arg in ("--" + name, value)]


def test_float_check_witnesses_reproduce_through_the_cli(capsys):
    # Each closed-vs-quadrature detail names the pair of its worst residual
    # exactly: the closed and --numeric single-shot calls on it give that
    # residual to the bit.
    for outcome, op in zip(closed_vs_quadrature_suite(6, 2), ("kl", "cross-entropy")):
        flags = _witness_flags(outcome.detail)
        closed = _cli_record(capsys, [op, *flags])["value"]
        numeric = _cli_record(capsys, [op, *flags, "--numeric"])["value"]
        assert abs(closed - numeric) / (1.0 + abs(closed)) == outcome.worst
    # The worst over the first n pairs never falls as n grows.
    prefixes = [[o.worst for o in closed_vs_quadrature_suite(n, 2)] for n in range(1, 7)]
    assert prefixes == sorted(prefixes, key=lambda w: w[0]) == sorted(prefixes, key=lambda w: w[1])
    # The monte-carlo detail names the seed and pair of its worst estimate.
    (outcome,) = monte_carlo_suite(4, 5, samples=3000)
    flags = _witness_flags(outcome.detail)
    seed = re.search(r"worst at seed (\d+), ", outcome.detail).group(1)
    closed = _cli_record(capsys, ["kl", *flags])["value"]
    record = _cli_record(capsys, ["mc", *flags, "--samples", "3000", "--seed", seed])
    sigmas = abs(record["value"] - closed) / record["diagnostics"]["standard_error"]
    assert f"(worst {sigmas:.2f} sigma, 3000 samples each" in outcome.detail


def _nan_at(monkeypatch, module, name, at):
    """Rebind module.name to return NaN where `at(*arguments)` holds, its value elsewhere."""
    shipped = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: (
        math.nan if at(*args) else shipped(*args, **kwargs)))


def test_nan_closed_form_is_the_worst_closed_vs_quadrature_residual(monkeypatch):
    # A NaN residual, which no comparison ranks, fails the check and is named.
    pairs = list(suites._random_pairs(np.random.Generator(np.random.PCG64(1)), 5))
    _nan_at(monkeypatch, core, "kl_closed", lambda p1, p2: (p1, p2) == pairs[2])
    kl, cross_entropy = closed_vs_quadrature_suite(5, 1)
    assert not kl.passed and math.isnan(kl.worst)
    assert "worst |closed - numeric|/(1+|closed|) = nan," in kl.detail
    assert kl.detail.endswith(suites._worst_at(pairs[2]))
    assert cross_entropy.passed


def test_nan_closed_form_is_the_worst_integration_constant_deviation(monkeypatch):
    _nan_at(monkeypatch, certificate, "integral_a_canonical", lambda d, e, f: (d, e) == (1.0, 1.0))
    outcome = ode_suite()[1]
    assert not outcome.passed and math.isnan(outcome.worst)
    assert outcome.detail.startswith("max |closed - quadrature| = nan over 9 grid points")
    assert outcome.detail.endswith("worst at (d, e, f) = (1.0, 1.0, 1.0)")


def test_nan_monte_carlo_estimate_is_the_worst_and_a_miss(monkeypatch):
    pairs = list(suites._random_pairs(np.random.Generator(np.random.PCG64(5)), 4))
    shipped = oracle.kl_monte_carlo
    monkeypatch.setattr(oracle, "kl_monte_carlo", lambda p1, p2, samples, seed: (
        dataclasses.replace(shipped(p1, p2, samples, seed=seed), estimate=math.nan)
        if seed == 7 else shipped(p1, p2, samples, seed=seed)))
    (outcome,) = monte_carlo_suite(4, 5, samples=3000)
    assert not outcome.passed
    assert outcome.worst == 1.0 and "3/4 estimates" in outcome.detail
    assert "(worst nan sigma, 3000 samples each" in outcome.detail
    assert "up to 1 misses allowed, 1 not finite)" in outcome.detail
    assert outcome.detail.endswith(suites._worst_at(pairs[2], 7))


def test_infinite_monte_carlo_standard_error_fails_the_check(monkeypatch):
    # An infinite standard error puts every estimate within 4 of it, a hit at
    # 0 sigma; it is not finite, so the check fails all the same.
    shipped = oracle.kl_monte_carlo
    monkeypatch.setattr(oracle, "kl_monte_carlo", lambda p1, p2, samples, seed: (
        dataclasses.replace(shipped(p1, p2, samples, seed=seed), standard_error=math.inf)
        if seed == 7 else shipped(p1, p2, samples, seed=seed)))
    (outcome,) = monte_carlo_suite(4, 5, samples=3000)
    assert not outcome.passed and outcome.worst == 0.0
    assert outcome.detail.startswith("4/4 estimates within 4 standard errors")
    assert "up to 1 misses allowed, 1 not finite)" in outcome.detail


def test_monte_carlo_estimate_with_zero_standard_error(monkeypatch):
    # An identical pair samples log R = 0 exactly, so the estimate and its
    # standard error are 0: a hit at 0 sigma while the closed form is 0 too,
    # a miss at infinitely many sigma when it is not.
    p = CauchyDist(3.0, 2.0)
    monkeypatch.setattr(suites, "_random_pairs", lambda rng, count: iter([(p, p)] * count))
    (outcome,) = monte_carlo_suite(2, 5, samples=1000)
    assert outcome.passed and outcome.worst == 0.0
    assert "2/2 estimates within 4 standard errors (worst 0.00 sigma" in outcome.detail
    monkeypatch.setattr(core, "kl_closed", lambda p1, p2: 0.5)
    (outcome,) = monte_carlo_suite(2, 5, samples=1000)
    assert not outcome.passed and outcome.worst == 2.0
    assert "0/2 estimates within 4 standard errors (worst inf sigma" in outcome.detail


def test_integration_constant_witness_reproduces_through_the_cli(capsys):
    # The ode suite's integration-constant detail names (d, e, f) exactly:
    # integral-a of (1, 0, 1; d, e, f) --numeric gives the check's quadrature
    # value to the bit. The closed call runs the general formula, within an
    # ulp of the canonical one the check compares, so the deviation
    # reproduces to within that ulp.
    outcome = ode_suite()[1]
    values = outcome.detail.split("(d, e, f) = (")[-1].rstrip(")").split(", ")
    d, e, f = map(float, values)
    flags = ["--a", "1", "--b", "0", "--c", "1"] + [
        arg for name, value in zip("def", values) for arg in ("--" + name, value)]
    closed = _cli_record(capsys, ["integral-a", *flags])["value"]
    numeric = _cli_record(capsys, ["integral-a", *flags, "--numeric"])["value"]
    assert abs(core.integral_a_canonical(d, e, f) - numeric) == outcome.worst
    assert abs(abs(closed - numeric) - outcome.worst) <= math.ulp(closed)


# Every subcommand of the parser, in the order build_parser adds them.
SUBCOMMANDS = (*_OPS, "batch", "verify")


def test_main_builds_one_parser_per_process(monkeypatch):
    # The first main call builds the parser tree (the top parser and one
    # per subcommand); later calls construct no ArgumentParser at all.
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    cli.build_parser.cache_clear()
    argv = ["entropy", "--l", "0", "--s", "1"]
    assert main(argv) == 0
    tree = len(built)
    assert tree == 1 + len(SUBCOMMANDS)
    for _ in range(3):
        assert main(argv) == 0
    assert main(["verify", "--suite", "ode"]) == 0
    assert len(built) == tree


def _outcome(monkeypatch, capsys, argv, stdin=""):
    """(exit status, stdout, stderr) of main(argv), a usage error's SystemExit included."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_cached_parser_matches_a_fresh_one(monkeypatch, capsys):
    # The cached parser carries nothing from one call to the next: a
    # sequence run on it, usage error included, prints what a parser
    # built afresh for each call prints, and so does every --help.
    sequence = [
        (["verify", "--suite", "ode"], ""),
        (["kl", "--l1", "0", "--s1", "1", "--l2", "1"], ""),
        (["kl", "--l1", "0", "--s1", "1", "--l2", "1", "--s2", "2"], ""),
        (["batch"], BATCH_INPUT),
    ]
    sequence += [(["--help"], "")] + [([op, "--help"], "") for op in SUBCOMMANDS]

    def run(fresh):
        outcomes = []
        for argv, stdin in sequence:
            if fresh:
                cli.build_parser.cache_clear()
            outcomes.append(_outcome(monkeypatch, capsys, argv, stdin))
        return outcomes

    fresh = run(fresh=True)
    cached = run(fresh=False)
    assert cached == fresh
    assert cached == run(fresh=False)
    codes = [code for code, _, _ in cached]
    assert codes == [0, 2, 0, 0] + [0] * (1 + len(SUBCOMMANDS))
    assert "the following arguments are required: --s2" in cached[1][2]
    assert cached[1][2].startswith("usage: cauchykl kl ") and cached[1][1] == ""
    assert cached[3][1] == BATCH_GOLDEN
    assert all(out.startswith("usage: cauchykl") for _, out, _ in cached[4:])


def test_every_traced_name_resolves():
    # The benchmark's tracer (perfbench/spans.py) getattr()s each of its
    # TARGETS in the module cauchykl.<layer>; a missing one would crash
    # every traced run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.TARGETS.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"cauchykl.{module}"), name)), (module, name)


# The package and each of its modules that declares __all__, found by walking
# the package, so a module added later is covered too.
_EXPORTING_MODULES = [name for name in ["cauchykl"] + [
    f"cauchykl.{info.name}" for info in pkgutil.iter_modules(cauchykl.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module", _EXPORTING_MODULES)
def test_every_exported_name_resolves(module):
    # A name left in __all__ after its definition is gone breaks `import *`.
    names = importlib.import_module(module).__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= namespace.keys()
