"""Span tracer for one traced ``fixtrace`` command, and the span summary.

Run as a script, it installs wrappers around each layer's public functions
from outside the package, calls ``fixtrace.cli.main`` and writes the spans
it recorded to a JSON file when the command ends::

    python bench/tracer.py SPANS.json COMMAND_ID homology doc.json

Untraced commands never import this module, so they run unwrapped.

A span is ``[name, start, end, parent index, command id, tag]``; the tag is
an outcome (a heuristic class, an Unknown comparison) or a size (the
entries of a Smith-form input).  Self time is a span's duration minus the
durations of its child spans.  Hot constructors are counted, not timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("cli", "exactalg", "simplicial", "grouprings", "reidemeister",
           "bundles", "catalog")


def _snf_entries(args, result):
    return args[0].rows * args[0].cols


def _class_outcome(args, result):
    return "certain" if result.is_certain else "heuristic"


def _compare_outcome(args, result):
    return result


# span name -> (targets as "module:qualname", tag function or None)
SPANS: Dict[str, Tuple[Tuple[str, ...], Optional[Callable]]] = {
    "cli.main": (("cli:main",), None),
    "cli.parse": (("cli:_read_input", "cli:parse_complex", "cli:parse_map",
                   "cli:parse_pair"), None),
    "cli.render": (("cli:render_report", "bundles:shadow_rendering",
                    "bundles:class_label"), None),
    "exactalg.snf": (("exactalg:smith_normal_form",), _snf_entries),
    "exactalg.matmul": (("exactalg:IntMatrix.__mul__",), None),
    "exactalg.homology": (("exactalg:homology", "exactalg:homology_maps",
                           "exactalg:lefschetz_from_homology",
                           "exactalg:hopf_chain_trace"), None),
    "simplicial.complex": (("simplicial:build_complex",
                            "simplicial:SimplicialMap.__init__"), None),
    "simplicial.chain": (("simplicial:chain_complex",
                          "simplicial:induced_chain_map"), None),
    "simplicial.pi1": (("simplicial:pi1_presentation",), None),
    "simplicial.pi1_endo": (("simplicial:induced_pi1_endo",), None),
    "reidemeister.lift": (("reidemeister:lift_self_map",), None),
    "reidemeister.cover": (("reidemeister:lift_to_universal_cover",), None),
    "reidemeister.lift_map": (("reidemeister:lift_map",), None),
    "reidemeister.trace": (("reidemeister:reidemeister_trace_chain",), None),
    "grouprings.ring": (("grouprings:GroupRingMatrix.__init__",
                         "grouprings:GroupRingMatrix.__mul__",
                         "grouprings:GroupRingMatrix.__add__",
                         "grouprings:GroupRingMatrix.__neg__",
                         "grouprings:GroupRingMatrix.apply",
                         "grouprings:GroupRingMatrix.augmented"), None),
    "grouprings.class": (("grouprings:twisted_class",), _class_outcome),
    "grouprings.consolidate": (("grouprings:ShadowElement.consolidated",),
                               None),
    "grouprings.compare": (("grouprings:classes_equal",), _compare_outcome),
    "bundles.pair_check": (("bundles:BundleSelfMapPair.__init__",
                            "bundles:DiscreteBundle.__init__"), None),
    "bundles.total_space": (("bundles:total_space",), None),
    "bundles.base_trace": (("bundles:base_reidemeister",), None),
    "bundles.verify_lefschetz": (("bundles:verify_lefschetz_mult",), None),
    "bundles.verify_reidemeister": (("bundles:verify_reidemeister_mult",),
                                    None),
    "bundles.nielsen_additivity": (("bundles:nielsen_additivity",), None),
}

# counter name -> target; counted on every call, never timed
COUNTERS: Dict[str, str] = {
    "grouprings.ring_elements": "grouprings:GroupRingElement.__init__",
    "reidemeister.fox_calls": "reidemeister:fox_derivative",
}


def _modules():
    import importlib
    return {name: importlib.import_module(f"fixtrace.{name}")
            for name in MODULES}


class Tracer:
    """Wraps the targets in ``SPANS`` and ``COUNTERS`` and records calls."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable, tag: Optional[Callable]):
        spans, stack, cid = self.spans, self._stack, self.command_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1, cid,
                      None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tag is not None:
                record[5] = tag(args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn: Callable):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, mods, target: str, make: Callable) -> None:
        mod_name, qualname = target.split(":")
        owner = mods[mod_name]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if path else getattr(owner, attr)
        wrapped = make(original)
        if path:
            self._set(owner, attr, wrapped)
            return
        # ``from .x import y`` binds y in every importing module, so rebind
        # each module that holds the original function.
        for mod in list(mods.values()) + [sys.modules["fixtrace"]]:
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = _modules()
        for name, (targets, tag) in SPANS.items():
            for target in targets:
                self._replace(mods, target,
                              lambda fn, n=name, t=tag: self._span(n, fn, t))
        for name, target in COUNTERS.items():
            self._replace(mods, target,
                          lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self) -> Dict:
        return {"command": self.command_id, "spans": self.spans,
                "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# Summary of recorded spans
# ---------------------------------------------------------------------------

class Summary:
    """Per span name: calls, self time, outermost inclusive time, tags."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.tag_sum: Dict[str, int] = defaultdict(int)
        self.outcomes: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, dump: Dict) -> None:
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, _, tag) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur - child_s[i]
            if not self._nested_in_same(spans, parent, name):
                self.incl_s[name] += dur
            if isinstance(tag, str):
                self.outcomes[(name, tag)] += 1
            elif tag is not None:
                self.tag_sum[name] += tag
        for name, n in dump["counts"].items():
            self.counts[name] += n

    @staticmethod
    def _nested_in_same(spans, parent: int, name: str) -> bool:
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items()
                   if name.split(".")[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: Summary) -> Dict[str, float]:
    """Per-layer metric values from a span summary (totals, not rates)."""
    ring = "grouprings."
    return {
        "exactalg.snf_s": s.self_s["exactalg.snf"],
        "exactalg.snf_calls": s.calls["exactalg.snf"],
        "exactalg.snf_entries": s.tag_sum["exactalg.snf"],
        "exactalg.homology_self_s": s.self_s["exactalg.homology"],
        "exactalg.matmul_s": s.self_s["exactalg.matmul"],
        "exactalg.share": _ratio(s.layer_self_s("exactalg"),
                                 s.incl_s["cli.main"]),
        "simplicial.complex_s": s.self_s["simplicial.complex"],
        "simplicial.chain_s": s.self_s["simplicial.chain"],
        "simplicial.pi1_s": (s.self_s["simplicial.pi1"]
                             + s.self_s["simplicial.pi1_endo"]),
        "simplicial.pi1_calls": s.calls["simplicial.pi1"],
        "reidemeister.lift_s": (s.self_s["reidemeister.lift"]
                                + s.self_s["reidemeister.cover"]
                                + s.self_s["reidemeister.lift_map"]),
        "reidemeister.lift_calls": s.calls["reidemeister.lift"],
        "reidemeister.fox_calls": s.counts["reidemeister.fox_calls"],
        "reidemeister.trace_s": s.self_s["reidemeister.trace"],
        "grouprings.ring_elements": s.counts[ring + "ring_elements"],
        "grouprings.ring_s": s.self_s[ring + "ring"],
        "grouprings.class_s": (s.self_s[ring + "class"]
                               + s.self_s[ring + "consolidate"]
                               + s.self_s[ring + "compare"]),
        "grouprings.class_calls": s.calls[ring + "class"],
        "grouprings.class_heuristic_ratio": _ratio(
            s.outcomes[(ring + "class", "heuristic")], s.calls[ring + "class"]),
        "grouprings.compare_s": s.self_s[ring + "compare"],
        "grouprings.compare_calls": s.calls[ring + "compare"],
        "grouprings.compare_unknown_ratio": _ratio(
            s.outcomes[(ring + "compare", "unknown")],
            s.calls[ring + "compare"]),
        "grouprings.class_share": _ratio(
            s.self_s[ring + "class"] + s.self_s[ring + "consolidate"]
            + s.self_s[ring + "compare"], s.incl_s["cli.main"]),
        "bundles.pair_check_s": s.incl_s["bundles.pair_check"],
        "bundles.total_space_calls": s.calls["bundles.total_space"],
        "bundles.base_trace_calls": s.calls["bundles.base_trace"],
        "bundles.verify_lefschetz_s": s.incl_s["bundles.verify_lefschetz"],
        "bundles.verify_reidemeister_s":
            s.incl_s["bundles.verify_reidemeister"],
        "bundles.nielsen_additivity_s":
            s.incl_s["bundles.nielsen_additivity"],
        "cli.parse_s": s.self_s["cli.parse"],
        "cli.render_s": s.self_s["cli.render"],
        "trace.main_s": s.incl_s["cli.main"],
    }


def main(argv: List[str]) -> int:
    out_path, command_id, *cli_args = argv
    tracer = Tracer(command_id)
    tracer.install()
    from fixtrace import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
