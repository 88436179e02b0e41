"""The benchmark's layer tracer patches names in pushfwd; they must exist.

``e2ebench/layers.py`` wraps functions where the oracle looks them up, so
renaming one of them breaks ``e2ebench/run.py --trace 1``.  This test
installs and removes the tracer around one pushforward, which reads the
basis and walks no window, and one h0 window of the same input.
"""

import importlib.util
from pathlib import Path

import pushfwd.hyperelliptic as hyperelliptic
from pushfwd import ComposedMap, Divisor, HyperellipticCurve, h0_sequence, pushforward

LAYERS = Path(__file__).resolve().parents[1] / "e2ebench" / "layers.py"
PATCHED = ("series_mul", "split_point_series", "weierstrass_point_series",
           "kernel_dim_mod_p", "rr_space_dim")


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2ebench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = {name: getattr(hyperelliptic, name) for name in PATCHED}
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        assert all(getattr(hyperelliptic, name) is not originals[name] for name in PATCHED)
        curve = HyperellipticCurve(5, [0, 1, 0, 0, 0, 1])
        divisor = Divisor(curve, 2, {curve.point(2, 2): 3, curve.point(0, 0): 1})
        pushforward(divisor, ComposedMap(1))
        assert tracer.metrics()["expansions.point_series.calls"] > 0
        assert tracer.metrics()["splitting.window.calls"] == 0
        h0_sequence(divisor, ComposedMap(1))
    finally:
        tracer.uninstall()
    assert {name: getattr(hyperelliptic, name) for name in PATCHED} == originals
    assert tracer.metrics()["splitting.window.calls"] == 1
