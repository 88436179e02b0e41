"""Per-layer tracing of pushfwd from outside the package.

``Tracer.install`` replaces each layer's public function, as bound where
its callers look it up, with a wrapper that counts calls and times them;
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Wrapped calls nest: each span adds its duration to the span that was
open when it started, so a layer's self time is its busy time minus the
time of the traced calls it made.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pushfwd.campaigns
import pushfwd.genus0
import pushfwd.hyperelliptic

CLOSED_FORMS = (
    "direct_image_g0", "direct_image_g0_bundle", "direct_image_g1",
    "stable_form", "spread_bound", "verify_duality",
)


class Span:
    """Totals of one layer: calls, busy time, and time in traced callees."""

    __slots__ = ("calls", "busy", "child")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.enabled = True
        self._open: list[float] = []  # callee time of each open span
        self._undo: list[tuple[object, str, object]] = []
        self.elim_cells = 0
        self.elim_max_rows = 0
        self.rr_repeats = 0
        self._rr_seen: dict[int, tuple[object, set]] = {}
        self.window_values = 0

    # ------------------------------------------------------------ spans

    def span(self, name: str, fn, on_call=None):
        """``fn`` wrapped to record a span named ``name``; ``on_call``
        sees the arguments of every traced call."""
        totals = self.spans.setdefault(name, Span())
        open_spans = self._open

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals.calls += 1
                totals.busy += elapsed
                totals.child += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    @contextmanager
    def paused(self):
        """Run a block untraced (the benchmark's own answer checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # ---------------------------------------------------------- counters

    def _note_elim(self, mat, p):
        rows, cols = mat.shape
        self.elim_cells += rows * cols
        self.elim_max_rows = max(self.elim_max_rows, rows)

    def _note_rr(self, divisor):
        # Keyed by curve object, as the oracle's memo is; holding the curve
        # keeps its id from being reused while the tracer lives.
        curve = divisor.curve
        seen = self._rr_seen.setdefault(id(curve), (curve, set()))[1]
        key = (divisor.at_infinity, divisor.affine)
        if key in seen:
            self.rr_repeats += 1
        else:
            seen.add(key)

    def _window(self, discover):
        """Window discovery, with each probe of its callable as a span."""

        def window(h0_of, *args, **kwargs):
            if not self.enabled:
                return discover(h0_of, *args, **kwargs)
            seq = discover(self.span("splitting.probe", h0_of), *args, **kwargs)
            self.window_values += len(seq.values)
            return seq

        return self.span("splitting.window", window)

    # ----------------------------------------------------------- install

    def _patch(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        hyper = pushfwd.hyperelliptic
        self._patch(hyper, "kernel_dim_mod_p",
                    self.span("linalg.elim", hyper.kernel_dim_mod_p, self._note_elim))
        for name in ("split_point_series", "weierstrass_point_series"):
            self._patch(hyper, name,
                        self.span("expansions.point_series", getattr(hyper, name)))
        self._patch(hyper, "series_mul", self.span("expansions.series_mul", hyper.series_mul))
        for module in (hyper, pushfwd.campaigns):
            self._patch(module, "rr_space_dim",
                        self.span("hyperelliptic.rr", module.rr_space_dim, self._note_rr))
        self._patch(hyper.Divisor, "__post_init__",
                    self.span("hyperelliptic.divisor", hyper.Divisor.__post_init__))
        for module in (hyper, pushfwd.genus0):
            self._patch(module, "h0_sequence_from_callable",
                        self._window(module.h0_sequence_from_callable))
        for name in CLOSED_FORMS:
            self._patch(pushfwd.campaigns, name,
                        self.span("closed_forms", getattr(pushfwd.campaigns, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values by name (units are in worker.PER_LAYER_UNITS)."""
        def get(name: str) -> Span:
            return self.spans.get(name, Span())

        rr, window, probes = get("hyperelliptic.rr"), get("splitting.window"), get("splitting.probe")
        return {
            "linalg.elim.calls": get("linalg.elim").calls,
            "linalg.elim.busy_s": get("linalg.elim").busy,
            "linalg.elim.cells": self.elim_cells,
            "linalg.elim.max_rows": self.elim_max_rows,
            "expansions.point_series.calls": get("expansions.point_series").calls,
            "expansions.point_series.busy_s": get("expansions.point_series").busy,
            "expansions.series_mul.calls": get("expansions.series_mul").calls,
            "expansions.series_mul.busy_s": get("expansions.series_mul").busy,
            "hyperelliptic.rows.self_s": rr.self_time,
            "hyperelliptic.rr.calls": rr.calls,
            "hyperelliptic.rr.busy_s": rr.busy,
            "hyperelliptic.rr.repeat_share": self.rr_repeats / rr.calls if rr.calls else 0.0,
            "hyperelliptic.divisor.built": get("hyperelliptic.divisor").calls,
            "hyperelliptic.divisor.busy_s": get("hyperelliptic.divisor").busy,
            "splitting.window.calls": window.calls,
            "splitting.window.probes": probes.calls,
            "splitting.window.useful_ratio":
                self.window_values / probes.calls if probes.calls else 0.0,
            "splitting.window.self_s": window.self_time,
            "closed_forms.busy_s": get("closed_forms").busy,
        }
