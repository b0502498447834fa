"""Layer tracing for the traced benchmark run.

Wraps, from outside, every function named in a glevy module's ``__all__``
plus the ``psi*`` methods of every family class and ``Mirrored``. Classes in
``__all__`` are left alone: replacing them would break the library's own
``isinstance`` dispatch. glevy modules import each other with
``from .x import y``, so each wrapper is rebound in every ``glevy.*``
namespace that holds the original object.

A span is recorded where a call crosses from one layer into another (the
benchmark itself is layer ``bench``); calls within one layer run through
unrecorded. ``exponents`` calls are leaves and far too many to keep one by
one, so their count, points and time are folded into the calling span.
The same holds for the benchmark-owned Monte Carlo payoff callback. A
layer's self time is its spans' duration minus the time their child spans
and folded leaves cover.
"""
from __future__ import annotations

import json
import sys
import time
import types

LAYERS = ("exponents", "premium", "pricing", "sampling", "options",
          "multifactor", "cli")
_EXACT_PRICERS = {"bs_call_price", "brownian_exact_call", "poisson_exact_call",
                  "gamma_exact_call"}
# Position of the ``size`` argument of the functions that draw variates.
_DRAWING = {"sample_increments": 2, "vg_dual_sample": 4, "nb_dual_sample": 5}

clock = time.perf_counter


class _Span:
    __slots__ = ("sid", "parent", "req", "layer", "name", "start", "child",
                 "exp_calls", "exp_points", "exp_s")

    def __init__(self, sid, parent, req, layer, name, start):
        self.sid, self.parent, self.req = sid, parent, req
        self.layer, self.name, self.start = layer, name, start
        self.child = 0.0
        self.exp_calls = self.exp_points = 0
        self.exp_s = 0.0


def _alpha_points(alpha) -> int:
    size = getattr(alpha, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    """Installs wrappers into the loaded glevy modules and aggregates spans.

    Single-threaded by design: the benchmark's client is one closed loop.
    """

    def __init__(self):
        self.totals: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[_Span] = []
        self._patches: list[tuple] = []
        self._next_id = 0
        self._in_leaf = False
        self._drawing = False
        self.active = False
        # Spans are kept for the first traced cycle only, which bounds memory
        # and the spans file; totals keep accumulating.
        self.keep_spans = True

    # -- accounting -------------------------------------------------------
    def add(self, metric: str, amount: float) -> None:
        self.totals[metric] = self.totals.get(metric, 0) + amount

    def _open(self, layer: str, name: str, req) -> _Span:
        parent = self._stack[-1].sid if self._stack else None
        if req is None:
            req = self._stack[-1].req
        self._next_id += 1
        span = _Span(self._next_id, parent, req, layer, name, clock())
        self._stack.append(span)
        return span

    def _close(self, span: _Span) -> float:
        end = clock()
        self._stack.pop()
        duration = end - span.start
        self_s = duration - span.child
        if self._stack:
            self._stack[-1].child += duration
        if span.layer != "bench":
            self.add(f"{span.layer}.calls", 1)
            self.add(f"{span.layer}.self_s", self_s)
        if self.keep_spans:
            self.spans.append((span.sid, span.parent, span.req, span.layer, span.name,
                               span.start, end, self_s, span.exp_calls,
                               span.exp_points, span.exp_s))
        return duration

    def begin_request(self, req_id: int, name: str) -> None:
        self._open("bench", name, req_id)

    def end_request(self) -> None:
        self._close(self._stack[-1])

    # -- wrappers ---------------------------------------------------------
    def _leaf(self, fn, alpha_index):
        """exponents calls: count, points and time folded into the caller.

        alpha_index is the position of the exponent argument, or None for
        calls that take none (make_model, mirror).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if _is_glevy_error(exc):
                    tracer.add("exponents.errors", 1)
                raise
            finally:
                dt = clock() - t0
                tracer._in_leaf = False
                top = tracer._stack[-1]
                top.child += dt
                top.exp_calls += 1
                top.exp_s += dt
                points = (_alpha_points(args[alpha_index])
                          if alpha_index is not None else 0)
                top.exp_points += points
                tracer.add("exponents.calls", 1)
                tracer.add("exponents.points", points)
                tracer.add("exponents.self_s", dt)

        return wrapper

    def _boundary(self, fn, layer, name):
        tracer = self
        draw_index = _DRAWING.get(name) if layer == "sampling" else None
        exact = layer == "options" and name in _EXACT_PRICERS
        mc = layer == "options" and name == "mc_call_price"

        def wrapper(*args, **kwargs):
            counting = draw_index is not None and not tracer._drawing
            if counting:
                size = args[draw_index] if len(args) > draw_index else kwargs.get("size", 1)
                tracer.add("sampling.draws", int(size))
                tracer._drawing = True
            try:
                if tracer._stack[-1].layer == layer:
                    return fn(*args, **kwargs)
                span = tracer._open(layer, name, None)
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    if _is_glevy_error(exc):
                        tracer.add(f"{layer}.errors", 1)
                    raise
                finally:
                    duration = tracer._close(span)
                    if exact:
                        tracer.add("options.exact_s", duration)
                    elif mc:
                        tracer.add("options.mc_s", duration)
            finally:
                if counting:
                    tracer._drawing = False

        return wrapper

    def _quad(self, fn):
        """scipy's quad, attributed to the layer of the span that calls it."""
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                layer = tracer._stack[-1].layer
                tracer.add(f"{layer}.quad_calls", 1)
                tracer.add(f"{layer}.quad_s", clock() - t0)

        return wrapper

    def payoff(self, fn):
        """The benchmark's own Monte Carlo callback, folded into its caller."""
        if not self.active:
            return fn
        tracer = self

        def wrapper(path):
            t0 = clock()
            try:
                return fn(path)
            finally:
                dt = clock() - t0
                tracer._stack[-1].child += dt
                tracer.add("sampling.payoff_calls", 1)
                tracer.add("sampling.payoff_s", dt)

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        from scipy import integrate

        from glevy import exponents

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "glevy" or n.startswith("glevy.")) and m is not None]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"glevy.{layer}"]
            names = getattr(module, "__all__", None) or ["main"]
            for name in names:
                obj = getattr(module, name)
                if not isinstance(obj, types.FunctionType):
                    continue
                if layer == "exponents":
                    alpha_index = 1 if name.startswith("psi") else None
                    replacements[id(obj)] = (obj, self._leaf(obj, alpha_index))
                else:
                    replacements[id(obj)] = (obj, self._boundary(obj, layer, name))
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        family_classes = list(exponents.FAMILIES.values()) + [exponents.Mirrored]
        for cls in family_classes:
            for attr in ("psi", "psi_prime", "psi_second"):
                if attr in vars(cls):
                    self._patch(cls, attr, self._leaf(vars(cls)[attr], 1))
        self._patch(integrate, "quad", self._quad(integrate.quad))
        self.active = True

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def write_spans(self, path, header: dict) -> None:
        """JSON lines: a header naming the span fields, then one array per span."""
        header = dict(header, fields=["id", "parent", "request", "layer", "name",
                                      "start", "end", "self_s", "exp_calls",
                                      "exp_points", "exp_s"])
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _is_glevy_error(exc: BaseException) -> bool:
    from glevy.errors import GlevyError
    return isinstance(exc, GlevyError)
