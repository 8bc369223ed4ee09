"""Spans around the public functions of each opsyslab layer.

The tracer patches names from the outside; the program carries no
instrumentation.  A span records its name, start, end and parent span.
Self time is a span's duration minus the
durations of its child spans (one thread, so children never overlap).

A function imported by name into another module (`from .hermitian import
eigh`) is a separate binding there, so every loaded opsyslab module that
holds the original object gets the wrapper.  A name that no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# layer name -> (module, attribute path) of the wrapped public functions
WRAPPED = {
    "hermitian.eigh": ("opsyslab.hermitian", "eigh"),
    "hermitian.eigh_coefficient_space": ("opsyslab.hermitian", "eigh_coefficient_space"),
    "sdp.check_feasibility": ("opsyslab.sdp", "check_feasibility"),
    "sdp.solve": ("opsyslab.sdp", "solve"),
    "spectrahedron.reduce_spectrahedron": ("opsyslab.spectrahedron", "reduce_spectrahedron"),
    "spectrahedron.optimize_linear": ("opsyslab.spectrahedron", "optimize_linear"),
    "algebra.gns": ("opsyslab.algebra", "gns"),
    "algebra.commutant": ("opsyslab.algebra", "commutant"),
    "algebra.from_basis": ("opsyslab.algebra", "MatrixStarAlgebra.from_basis"),
    "algebra.generate_algebra": ("opsyslab.algebra", "generate_algebra"),
    "problems.parse_problem": ("opsyslab.problems", "parse_problem"),
    "problems.run": ("opsyslab.problems", "run"),
    "problems.render_value": ("opsyslab.problems", "render_value"),
    "cli.main": ("opsyslab.cli", "main"),
    "states.has_uep": ("opsyslab.states", "has_uep"),
    "states.extension_interval": ("opsyslab.states", "extension_interval"),
    "states.is_pure": ("opsyslab.states", "is_pure"),
    "states.pure_decomposition": ("opsyslab.states", "pure_decomposition"),
    "rigidity.riesz_sequence": ("opsyslab.rigidity", "riesz_sequence"),
    "rigidity.solve_unperforated_instance": ("opsyslab.rigidity", "solve_unperforated_instance"),
    "rigidity.search_counterexample": ("opsyslab.rigidity", "search_counterexample"),
    "rigidity.ucp_fixed_extent": ("opsyslab.rigidity", "ucp_fixed_extent"),
    "korovkin.korovkin_demo": ("opsyslab.korovkin", "korovkin_demo"),
}

SDP_SPANS = ("sdp.check_feasibility", "sdp.solve")


@dataclass(slots=True)
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


def _note(name, args, result, info):
    """Counters read from public arguments and return values only."""
    if name == "hermitian.eigh_coefficient_space":
        shape = getattr(args[0], "shape", None) if args else None
        if shape:
            info["dim"] = shape[0]
    elif name in SDP_SPANS:
        info["status"] = getattr(result, "status", None)
        info["newton_steps"] = getattr(result, "newton_steps", 0)


class Tracer:
    def __init__(self, wrapped: dict = WRAPPED):
        self.wrapped = wrapped
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)  # recursion stays in the outer span
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                _note(name, args, result, span.info)
                spans.append(span)

        return traced

    def install(self):
        """Patch every binding of every wrapped function; `uninstall`
        restores them."""
        self.absent = []
        for name, (module_name, attr) in self.wrapped.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if not isinstance(raw, staticmethod):
                    self.absent.append(name)
                    continue
                self._set(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            package = module_name.split(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != package or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def take(self) -> list:
        """The spans recorded since the last call."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_totals(spans) -> dict:
    """Per-layer counters of one traced round."""
    calls: dict = {}
    self_s: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time
    sdp = [s for s in spans if s.name in SDP_SPANS]
    dims = [s.info["dim"] for s in spans if "dim" in s.info]
    useful = sum(1 for s in sdp if s.info.get("status") in ("OPTIMAL", "INFEASIBLE"))
    return {
        "calls": calls,
        "self_ms": {k: 1000.0 * v for k, v in self_s.items()},
        "newton_steps": sum(int(s.info.get("newton_steps") or 0) for s in sdp),
        "sdp_calls": len(sdp),
        "numerical_failures": sum(1 for s in sdp if s.info.get("status") == "NUMERICAL_FAILURE"),
        "useful": useful,
        "face_rounds": sum(
            1 for s in spans
            if s.name == "sdp.check_feasibility" and s.parent is not None
            and s.parent.name == "spectrahedron.reduce_spectrahedron"
        ),
        "mean_coefficient_dim": sum(dims) / len(dims) if dims else 0.0,
    }
