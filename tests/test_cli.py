"""CLI surface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushfwd.hyperelliptic as hyperelliptic
from pushfwd import cli, curve_from_string, divisor_from_string
from pushfwd.campaigns import CAMPAIGNS, CampaignReport
from reference_oracle import addition_case

GOLDEN = Path(__file__).resolve().parent / "golden"


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


# (name, curve, divisor, m): hyper push outputs kept byte for byte in
# tests/golden/hyper_push/<name>.<format>.
GENUS2 = "p=5; f=0,1,0,0,0,1"
GENUS3 = "p=7; f=1,2,0,0,1,0,0,1"
GENUS3_DOUBLING = "inf:2; pt:0,1:40; pt:2,4:54; pt:3,0:57"
HYPER_PUSH_CASES = (
    ("weierstrass", GENUS2, "inf:1; pt:0,0:7", 1),
    ("split-41", GENUS2, "inf:-3; pt:2,2:41; pt:3,1:-2", 3),
    ("far-below", GENUS2, "inf:-30000", 1),
    ("far-below-m3", GENUS2, "inf:-30000", 3),
    ("m50", GENUS2, "inf:4; pt:2,2:3; pt:0,0:-1", 50),
    ("conjugates", GENUS2, "pt:2,2:3; pt:2,3:-5", 1),
    ("genus3", GENUS3, "inf:2; pt:3,0:3; pt:2,3:-2; pt:5,5:4", 3),
    ("genus1-m50", "p=7; f=1,1,0,1", "inf:3; pt:2,2:-1", 50),
    # The doubling route's straight-line genus-2 steps at p = 2^31 - 1.
    ("mersenne31", "p=2147483647; f=1,1,0,0,0,1", "pt:0,1:1000000000; pt:2,1708044750:80", 3),
    # The Newton route's packed interpolant at its widest slots: genus 12 at
    # p = 2^31 - 1, six split x-values, n = 29 nodes in [g + 2, B(12, 6)].
    ("genus12-mersenne31", "p=2147483647; f=1,3,0,0,0,0,0,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
     "inf:-3; pt:0,1:5; pt:0,2147483646:-2; pt:2,1207140418:-4; pt:4,1034689055:3; "
     "pt:5,1207224530:-6; pt:6,1141634802:2; pt:11,1200644925:7", 4),
    # The Newton route's widest binomial columns: genus 30 at p = 2^31 - 1,
    # six split x-values whose d fall from 12 to 2 in x order, so that the
    # interpolant takes them reversed; n = 38 nodes in [g + 2, B(30, 6)].
    ("genus30-mersenne31", "p=2147483647; f=1,3,0,0,0,0,0,5" + ",0" * 53 + ",1",
     "inf:-4; pt:2,1929775706:12; pt:3,1589367372:-9; pt:4,1529151900:7; "
     "pt:6,494380596:-5; pt:8,448903709:3; pt:9,1063271958:2", 3),
    # The doubling route at genus 3 over F_7: n = 95 > B(3, 3) = 91 nodes
    # at three x-values, one a ramification zero, whose ladder adds points
    # by every case of _add_point (test_genus3_doubling_case_adds_by_every_case).
    ("genus3-doubling", GENUS3, GENUS3_DOUBLING, 3),
)
FORMATS = {"text": "txt", "json": "json", "csv": "csv"}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name, curve, divisor, m", HYPER_PUSH_CASES,
                         ids=[case[0] for case in HYPER_PUSH_CASES])
def test_hyper_push_matches_golden_files(name, curve, divisor, m, fmt, tmp_path):
    target = tmp_path / "push.out"
    code = cli.main(["hyper", "push", "--curve", curve, "--divisor", divisor,
                     "--m", str(m), "--format", fmt, "--out", str(target)])
    assert code == 0
    golden = GOLDEN / "hyper_push" / f"{name}.{FORMATS[fmt]}"
    assert target.read_bytes() == golden.read_bytes()


def test_genus3_doubling_case_adds_by_every_case(monkeypatch):
    # The ladder of the genus3-doubling golden case adds a point outside
    # the support (the CRT), at a point of it (a Hensel step), and at the
    # conjugate of one, a ramification point among them (a cancel).
    cases = Counter()
    add_point = hyperelliptic._add_point

    def logged(u, v, x0, y0, f, genus, p):
        cases[addition_case(u, v, x0, y0, p)] += 1
        return add_point(u, v, x0, y0, f, genus, p)

    monkeypatch.setattr(hyperelliptic, "_add_point", logged)
    divisor = divisor_from_string(curve_from_string(GENUS3), GENUS3_DOUBLING)
    _, sites = hyperelliptic._conditions(divisor)
    assert len(sites) == 3
    assert sum(d for _, _, d in sites) > hyperelliptic._doubling_bound(3, 3)
    hyperelliptic._pole_orders(divisor)
    assert cases == Counter({"crt": 2, "hensel": 2, "cancel": 1, "cancel at y0 = 0": 1})


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


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_verify_csv_matches_golden_file(campaign, tmp_path):
    # Sampled instances and their answers are reproducible from (campaign,
    # seed, trials); the files hold the CSV at seed 3, 40 trials.
    target = tmp_path / "scan.csv"
    code = cli.main(["verify", "--campaign", campaign, "--seed", "3", "--trials", "40",
                     "--format", "csv", "--out", str(target)])
    assert code == 0
    assert target.read_bytes() == (GOLDEN / f"{campaign}.csv").read_bytes()


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

    # Stabilization samples genus >= 2 and composition m >= 2.
    for campaign, flag, name in (("stabilization", "--max-genus", "max_genus"),
                                 ("composition", "--max-m", "max_m")):
        code, out, err = run_cli("verify", "--campaign", campaign, flag, "1",
                                 "--trials", "3", "--format", "csv")
        assert code == 2
        assert out == ""
        assert f"{name} must be at least 2" in err

    # An --out that cannot be written is bad input, not a failed campaign.
    for path in ("/nonexistent/x", "/"):
        for command in (("g0", "--n", "2", "--m", "1"),
                        ("verify", "--campaign", "duality", "--trials", "2")):
            code, out, err = run_cli(*command, "--out", path)
            assert code == 2
            assert out == ""
            assert f"--out {path!r}" in err
            assert "Traceback" not in err


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


@pytest.mark.parametrize("curve,field", [
    ("f=1,0,1,1; p=7; p=11", "'p'"),
    ("p=7; f=1,0,1,1; f=1,1,0,1", "'f'"),
])
def test_exit_code_two_on_a_repeated_curve_field(curve, field):
    code, out, err = run_cli("hyper", "push", "--curve", curve, "--divisor", "inf:1", "--m", "1")
    assert code == 2
    assert out == ""
    assert f"curve field {field} is given twice" in err


def test_runtime_imports_no_numpy():
    # numpy is a test dependency only: the package, its CLI and its
    # campaigns run on pure-Python integer lists.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import pushfwd, pushfwd.cli, pushfwd.campaigns, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv, rank", [
    (("g0", "--n", HUGE, "--m", "5"), int(HUGE)),
    (("g1", "--n", HUGE, "--r", "1", "--d", "3"), int(HUGE)),
    (("g1", "--n", "2", "--r", HUGE, "--d", "3"), 2 * int(HUGE)),
    (("hyper", "push", "--curve", GENUS2, "--divisor", "inf:2; pt:2,2:3", "--m", HUGE),
     2 * int(HUGE)),
], ids=["g0-n", "g1-n", "g1-r", "hyper-push-m"])
def test_huge_rank_answers_in_json_and_exits_two_in_text(argv, rank, capsys):
    assert cli.main([*argv, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["rank"] == rank
    assert err == ""
    for fmt in ("text", "csv"):
        assert cli.main([*argv, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: rank {rank} has too many summands to list (at most "
                       "1000000); use --format json for the (twist, mult) pairs\n")


@pytest.mark.parametrize("argv, rank", [
    (("hyper", "push", "--curve", GENUS2, "--divisor", "inf:2; pt:2,2:3", "--m", "1000000"),
     2_000_000),
    (("g0", "--n", "300000000", "--m", "5"), 300_000_000),
], ids=["hyper-push-m-1e6", "g0-n-3e8"])
def test_large_rank_json_budget(argv, rank, tmp_path):
    # One int per summand made these take 5 s and over 20 s.
    target = tmp_path / "image.json"
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert cli.main([*argv, "--format", "json", "--out", str(target)]) == 0
        best = min(best, time.perf_counter() - start)
    assert json.loads(target.read_text())["rank"] == rank
    assert best < 0.050


def test_verify_rejects_a_max_m_its_scan_rows_cannot_list(capsys):
    for fmt in ("text", "json", "csv"):
        code = cli.main(["verify", "--campaign", "duality", "--max-m", "500001",
                         "--format", fmt])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "max_m must be at most 500000, got 500001" in err


numbers = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)).map(str)
commands = st.one_of(
    st.builds(lambda n, m: ["g0", "--n", n, "--m", m], numbers, numbers),
    st.builds(lambda n, r, d, flag: ["g1", "--n", n, "--r", r, "--d", d, *flag],
              numbers, numbers, numbers,
              st.sampled_from(((), ("--exceptional", "yes"), ("--exceptional", "no")))),
    st.builds(lambda h0, lo, rank: ["extract", "--h0", h0, "--lo", lo, "--rank", rank],
              st.sampled_from(("3,1,0,0", "4,2,1,0,0", "1,0,0", "2,1,0,0")),
              numbers, st.one_of(st.sampled_from(("1", "2")), numbers)),
    st.builds(lambda g, n, d, mode: ["bounds", "--g", g, "--n", n, "--d", d, "--mode", mode],
              numbers, numbers, numbers, st.sampled_from(("any", "generic", "degree"))),
    st.builds(lambda divisor, m: ["hyper", "push", "--curve", GENUS2, "--divisor", divisor,
                                  "--m", m],
              st.sampled_from(("inf:2; pt:2,2:3", "inf:-7", "pt:0,0:5; pt:2,3:-1")), numbers),
)


@given(commands, st.sampled_from(("text", "json", "csv")))
@settings(max_examples=300, deadline=timedelta(milliseconds=500))
def test_cli_contract_on_huge_integers(argv, fmt):
    """Every numeric flag of g0, g1, extract, bounds and hyper push, with
    integers up to 10**30 in size, answers (exit 0) or fails with exit 2
    and a message; no exception escapes, and each call is fast.  verify
    is left out: its --trials, --max-genus and --max-m set the amount of
    work, so a huge value there is a long run, not a contract breach."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--format", fmt])
    if code == 0:
        assert out.getvalue() and not err.getvalue()
        if fmt == "json":
            json.loads(out.getvalue())
    else:
        assert code == 2
        assert not out.getvalue()
        assert err.getvalue().startswith("error: ")
