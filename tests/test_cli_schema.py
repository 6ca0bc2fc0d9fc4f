"""Every subcommand's --json output follows one envelope schema:
``{"command", "ok", "data", "metrics"}``."""

import json

import pytest

from repro.cli import main

ENVELOPE_KEYS = {"command", "ok", "data", "metrics"}


def _envelope(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    envelope = json.loads(out)
    return code, envelope


@pytest.mark.parametrize(
    "command,argv",
    [
        ("tables", ["tables", "--json"]),
        ("figures", ["figures", "--json"]),
        ("membership", ["membership", "moesi", "dragon", "--json"]),
        ("verify", ["verify", "--quick", "--json"]),
        ("shootout", ["shootout", "--references", "200", "--json"]),
        ("hierarchy", ["hierarchy", "--references", "100", "--json"]),
        ("diagram", ["diagram", "moesi", "--json"]),
        ("ablation", ["ablation", "geometry", "--references", "200",
                      "--json"]),
        ("run", ["run", "moesi", "--references", "100", "--json"]),
        ("fuzz", ["fuzz", "--seeds", "5", "--json"]),
    ],
)
def test_envelope_schema(capsys, tmp_path, command, argv, monkeypatch):
    monkeypatch.chdir(tmp_path)  # fuzz writes repro files to cwd-relative dir
    code, envelope = _envelope(capsys, argv)
    assert set(envelope) == ENVELOPE_KEYS
    assert envelope["command"] == command
    assert isinstance(envelope["ok"], bool)
    assert isinstance(envelope["metrics"], dict)
    assert code == (0 if envelope["ok"] else 1)


def test_bench_envelope(capsys, tmp_path):
    code, envelope = _envelope(
        capsys,
        ["bench", "--quick", "--workers", "2", "--json",
         "--out", str(tmp_path / "bench.json")],
    )
    assert set(envelope) == ENVELOPE_KEYS
    assert envelope["command"] == "bench"
    assert envelope["data"]["suite"] == "repro-bench"
    assert code == 0


@pytest.mark.parametrize(
    "flag,section", [("--batch", "batch"), ("--serve-batch", "serve_batch")]
)
def test_bench_section_envelope(capsys, tmp_path, monkeypatch, flag, section):
    # A section run is judged by its own gates and never writes a report:
    # quick numbers must not overwrite the full-suite baseline.
    monkeypatch.chdir(tmp_path)
    code, envelope = _envelope(
        capsys,
        ["bench", flag, "--quick", "--json",
         "--out", str(tmp_path / "bench.json")],
    )
    assert set(envelope) == ENVELOPE_KEYS
    assert envelope["command"] == "bench"
    assert code == 0 and envelope["ok"] is True
    data = envelope["data"]
    assert section in data and "matrix" not in data
    assert {row["section"] for row in data["regression"]["gates"]} == {
        section
    }
    assert list(tmp_path.iterdir()) == []


def test_run_envelope_payload(capsys):
    code, envelope = _envelope(
        capsys, ["run", "--protocol", "illinois", "--references", "200",
                 "--json"])
    assert code == 0 and envelope["ok"] is True
    assert envelope["data"]["row"]["system"] == "illinois"
    assert envelope["data"]["violations"] == 0
    assert envelope["metrics"]["cache.accesses"] == 200


def test_verify_envelope_payload(capsys):
    code, envelope = _envelope(capsys, ["verify", "--quick", "--json"])
    assert code == 0
    rows = envelope["data"]["rows"]
    assert rows and all(row["ok"] for row in rows)
    assert envelope["metrics"]["verify.cases"] == len(rows)
    assert envelope["metrics"]["verify.failures"] == 0


def test_trace_path_lands_in_envelope(capsys, tmp_path):
    path = tmp_path / "run.trace.json"
    code, envelope = _envelope(
        capsys, ["run", "moesi", "--references", "100", "--trace",
                 str(path), "--json"])
    assert code == 0
    assert envelope["data"]["trace_path"] == str(path)
    from repro.obs.export import validate_chrome_trace

    assert validate_chrome_trace(json.loads(path.read_text())) == []


def test_json_output_is_quiet(capsys):
    """--json replaces the human report: stdout is exactly one JSON doc."""
    main(["shootout", "--references", "200", "--json"])
    out = capsys.readouterr().out
    json.loads(out)  # would raise if the table were mixed in
