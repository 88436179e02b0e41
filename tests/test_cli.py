"""CLI surface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from pushfwd import cli
from pushfwd.campaigns import CampaignReport


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "pushfwd", *argv],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_g0_json_matches_documented_payload():
    code, out, _ = run_cli("g0", "--n", "3", "--m", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "splitting": [{"twist": 0, "mult": 1}, {"twist": -1, "mult": 2}],
        "rank": 3, "degree": -2, "h0": 1, "h1": 0, "spread": 1,
    }


def test_json_emission_is_deterministic():
    first = run_cli("hyper", "push", "--curve", "p=5; f=0,1,0,0,0,1",
                    "--divisor", "inf:0", "--m", "2", "--format", "json")
    second = run_cli("hyper", "push", "--curve", "p=5; f=0,1,0,0,0,1",
                     "--divisor", "inf:0", "--m", "2", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_extract_subcommand():
    code, out, _ = run_cli("extract", "--h0", "3,1,0,0", "--lo", "-1", "--rank", "2")
    assert code == 0
    assert "splitting: 0 -1" in out


def test_g1_subcommand():
    code, out, _ = run_cli("g1", "--n", "2", "--r", "2", "--d", "0",
                           "--exceptional", "yes", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["splitting"] == [
        {"twist": 0, "mult": 1}, {"twist": -1, "mult": 2}, {"twist": -2, "mult": 1},
    ]


def test_bounds_subcommand():
    code, out, _ = run_cli("bounds", "--g", "4", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "13/3"
    assert payload["floor"] == 4

    code, out, _ = run_cli("bounds", "--g", "5", "--n", "5", "--d", "3",
                           "--mode", "degree")
    assert code == 0
    assert "equality" in out


def test_hyper_push_text_output():
    code, out, _ = run_cli("hyper", "push", "--curve", "p=5; f=0,1,0,0,0,1",
                           "--divisor", "inf:0", "--m", "1")
    assert code == 0
    assert "splitting: 0 -3" in out
    assert "h0 sequence on [-3, 2]: 5 3 2 1 0 0" in out


def test_hyper_push_far_divisor():
    code, out, _ = run_cli("hyper", "push", "--curve", "p=5; f=0,1,0,0,0,1",
                           "--divisor", "inf:30000", "--m", "1")
    assert code == 0
    assert "splitting: 15000 14997" in out
    assert "h0 sequence on [14997, 15002]: 5 3 2 1 0 0" in out


def test_hyper_push_csv_scan_row():
    code, out, _ = run_cli("hyper", "push", "--curve", "p=5; f=0,1,0,0,0,1",
                           "--divisor", "inf:2", "--m", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["p"] == "5" and row["g"] == "2" and row["n"] == "2"
    assert row["splitting"] == "1 -2"
    assert row["within_bound"] == "True"


def test_verify_exit_zero_and_csv():
    code, out, _ = run_cli("verify", "--campaign", "genus1", "--seed", "3",
                           "--trials", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert set(rows[0]) == {"p", "g", "curve", "divisor", "m", "n", "d",
                            "splitting", "spread", "bound", "within_bound"}


def test_verify_json_report():
    code, out, _ = run_cli("verify", "--campaign", "genus0", "--seed", "1",
                           "--trials", "25", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["trials"] == 25
    assert report["passed"] == 25
    assert report["failed"] == 0
    assert report["failures"] == []
    assert report["seed"] == 1


def test_verify_reports_reproducible():
    a = run_cli("verify", "--campaign", "duality", "--seed", "9", "--trials", "8",
                "--format", "json")
    b = run_cli("verify", "--campaign", "duality", "--seed", "9", "--trials", "8",
                "--format", "json")
    ra, rb = json.loads(a[1]), json.loads(b[1])
    ra.pop("wall_time_s"), rb.pop("wall_time_s")
    assert ra == rb


def test_exit_code_two_on_bad_input():
    code, _, err = run_cli("g0", "--n", "0", "--m", "3")
    assert code == 2
    assert "map degree must be at least 1" in err

    code, _, err = run_cli("hyper", "push", "--curve", "p=5; f=0,1,0,0,0,1",
                           "--divisor", "pt:2,1:1", "--m", "1")
    assert code == 2
    assert "does not satisfy" in err

    code, _, _ = run_cli("verify", "--campaign", "nonsense")
    assert code == 2

    # 2**61 - 1 is prime: the size check must come before trial division.
    code, _, err = run_cli("hyper", "push", "--curve", "p=2305843009213693951; f=0,1,0,1",
                           "--divisor", "inf:1", "--m", "1")
    assert code == 2
    assert "below 2**31" in err

    for flag, name in (("--max-genus", "max_genus"), ("--max-m", "max_m")):
        code, _, err = run_cli("verify", "--campaign", "duality", flag, "0")
        assert code == 2
        assert f"{name} must be at least 1" in err


@pytest.mark.parametrize("curve,divisor,term", [
    ("p=five; f=0,1,0,0,0,1", "inf:1", "p=five"),
    ("p=5; f=0,1,x,0,0,1", "inf:1", "f=0,1,x,0,0,1"),
    ("p=5; f=0,1,0,0,0,1", "inf:two", "inf:two"),
    ("p=5; f=0,1,0,0,0,1", "pt:a,2:1", "pt:a,2:1"),
    ("p=5; f=0,1,0,0,0,1", "pt:2,2:x", "pt:2,2:x"),
])
def test_exit_code_two_names_a_non_integer_field(curve, divisor, term):
    code, _, err = run_cli("hyper", "push", "--curve", curve, "--divisor", divisor, "--m", "1")
    assert code == 2
    assert repr(term) in err
    assert "expected " + term.split("=")[0].split(":")[0] in err


def test_exit_code_one_on_campaign_failure(monkeypatch, capsys):
    def fake_run_campaign(name, seed, trials, max_genus=3, max_m=3):
        return CampaignReport(name, seed, trials, trials - 1, 1, 0.0,
                              [{"index": 0, "inputs": {}, "expected": "a",
                                "actual": "b"}], [])

    monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
    code = cli.main(["verify", "--campaign", "duality", "--trials", "5"])
    assert code == 1
    assert "1 failed" in capsys.readouterr().out


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "image.json"
    code, out, _ = run_cli("g0", "--n", "2", "--m", "0", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rank"] == 2
