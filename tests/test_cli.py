"""CLI: record format, exit-status contract, batch streaming, verify suites."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cauchykl
from cauchykl.cli import _CONFIG, _OPS, execute_job, format_record, main
from cauchykl.core import CauchyDist, kl_closed

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
{"op":"mc","params":{"l1":0,"s1":1,"l2":0,"s2":3},"config":{"samples":50000,"seed":7},"status":"ok","value":0.2854751929590636,"diagnostics":{"standard_error":0.0032656862662854671,"samples":50000,"seed":7}}
{"op":"entropy","params":{"l":0,"s":1},"status":"ok","value":2.5310242469692907}
{"op":"integral-a","params":{"a":2,"b":1,"c":3,"d":1,"e":-1,"f":5},"config":{"numeric":true},"status":"ok","value":3.2529544459089363,"diagnostics":{"error_estimate":2.1077194678747861e-12,"evaluations":1560,"converged":true}}
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


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------

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


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_batch_non_finite_and_arithmetic_errors_keep_stream(monkeypatch, capsys):
    # Each of the first four raised or printed a bare nan before; the
    # last record must still run after them. Two identical distributions
    # at s = 1e300 have KL exactly 0.
    text = ('{"op":"kl","params":{"l1":0,"s1":1e-200,"l2":0,"s2":1e-200}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1e300,"l2":0,"s2":1e300}}\n'
            '{"op":"integral-a","params":{"a":1e200,"b":0,"c":1e200,"d":1,"e":0,"f":1}}\n'
            '{"op":"kl","params":{"l1":NaN,"s1":1,"l2":0,"s2":1}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert [r["status"] for r in lines] == ["error", "ok", "error", "error", "ok"]
    assert lines[1]["value"] == 0.0
    assert all("nan" in r["error"] for r in lines[2:4])
    assert lines[4]["value"] == kl_closed(CauchyDist(0, 1), CauchyDist(1, 1))


def _run_cli(args, stdin):
    """`python -m cauchykl.cli ARGS` in a fresh process, with stdin from a file."""
    env = dict(os.environ, PYTHONPATH=str(Path(cauchykl.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "cauchykl.cli", *args], stdin=stdin,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_batch_full_range_numeric_records_keep_stream_and_stderr(tmp_path):
    # Quadrature over parameters whose squares underflow or overflow: each
    # is an error record naming the abscissa of the first non-finite
    # sample, nothing reaches stderr, and the last record still runs.
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
    assert [r["status"] for r in lines] == ["error"] * 6 + ["ok"]
    assert all(r["error"].startswith("integrand returned non-finite value") for r in lines[:6])
    assert lines[6]["diagnostics"]["evaluations"] == 1515


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


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--suite", "certificate", "--count", "2", "--seed", "11"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == out1
