"""Campaign failure exemplars: a failing oracle instance records its
extracted h0 windows, the read-out splitting and the pole cap and orders
they are read from, enough to reproduce it from its JSON record alone; a
passing instance records nothing."""

import json

import pytest

from pushfwd import (
    CohSequence,
    ComposedMap,
    curve_from_string,
    divisor_from_string,
    h0_sequence,
    pushforward,
    splitting_from_h0_sequence,
    splitting_text,
    twist,
)
from pushfwd import campaigns
from pushfwd.hyperelliptic import _pole_orders


def _off_by_one(closed_form):
    return lambda *args: twist(closed_form(*args), 1)


# (campaign, closed form made wrong, its wrong version, windows per failure)
BROKEN = (
    ("genus1", "direct_image_g1", _off_by_one(campaigns.direct_image_g1), 1),
    ("duality", "verify_duality", lambda push, push_dual: False, 2),
    ("stabilization", "stable_form", _off_by_one(campaigns.stable_form), 1),
    ("composition", "direct_image_g0_bundle", _off_by_one(campaigns.direct_image_g0_bundle), 2),
)


@pytest.mark.parametrize("campaign, name, wrong, count", BROKEN, ids=[b[0] for b in BROKEN])
def test_failure_exemplar_reproduces_from_its_json(campaign, name, wrong, count, monkeypatch):
    monkeypatch.setattr(campaigns, name, wrong)
    report = campaigns.run_campaign(campaign, 5, 12, max_genus=2, max_m=3)
    assert report.failed > 0
    monkeypatch.undo()  # reproducing needs the oracle only
    for record in json.loads(json.dumps(report.payload()))["failures"]:
        assert len(record["windows"]) == count
        curve = curve_from_string(record["inputs"]["curve"])
        assert divisor_from_string(curve, record["inputs"]["divisor"]) == \
            divisor_from_string(curve, record["windows"][0]["divisor"])
        for window in record["windows"]:
            divisor = divisor_from_string(curve, window["divisor"])
            cover = ComposedMap(window["m"])
            seq = h0_sequence(divisor, cover)
            assert (seq.lo, list(seq.values)) == (window["lo"], window["values"])
            extracted = splitting_from_h0_sequence(
                CohSequence(window["lo"], window["values"], cover.degree))
            assert splitting_text(extracted) == window["read_out"]
            assert splitting_text(pushforward(divisor, cover)) == window["read_out"]
            # The window follows from the recorded pole cap and orders alone:
            # dim L(D - k inf) counts x^i v_j of pole order 2i + o_j <= cap - k.
            cap, orders = window["cap"], window["orders"]
            assert _pole_orders(divisor) == (cap, tuple(orders))
            n = cover.degree
            assert window["values"] == [
                sum(max(0, (cap - n * l - o) // 2 + 1) for o in orders)
                for l in range(window["lo"], window["lo"] + len(window["values"]))]


def test_passing_instances_record_no_window(monkeypatch):
    def unreachable(divisor, cover):
        raise AssertionError("a window record for a passing instance")

    monkeypatch.setattr(campaigns, "_window_record", unreachable)
    for campaign in ("genus1", "duality", "stabilization", "composition"):
        report = campaigns.run_campaign(campaign, 5, 12, max_genus=2, max_m=3)
        assert report.failed == 0 and report.failures == []
