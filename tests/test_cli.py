"""CLI: record format, exit-status contract, batch streaming, verify suites."""

import io
import json
import math

import pytest

from cauchykl.cli import _OPS, execute_job, format_record, main
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
BATCH_GOLDEN = """\
{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1},"status":"ok","value":0.22314355131420976}
{"op":"kl","params":{"l1":1,"s1":2,"l2":3,"s2":5},"status":"ok","value":0.28141245943818549}
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
    # last record must still run after them.
    text = ('{"op":"kl","params":{"l1":0,"s1":1e-200,"l2":0,"s2":1e-200}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1e300,"l2":0,"s2":1e300}}\n'
            '{"op":"integral-a","params":{"a":1e200,"b":0,"c":1e200,"d":1,"e":0,"f":1}}\n'
            '{"op":"kl","params":{"l1":NaN,"s1":1,"l2":0,"s2":1}}\n'
            '{"op":"kl","params":{"l1":0,"s1":1,"l2":1,"s2":1}}\n')
    code, out = run_batch(monkeypatch, capsys, text)
    assert code == 1
    lines = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert [r["status"] for r in lines] == ["error"] * 4 + ["ok"]
    assert all("nan" in r["error"] for r in lines[1:4])
    assert lines[4]["value"] == kl_closed(CauchyDist(0, 1), CauchyDist(1, 1))


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
