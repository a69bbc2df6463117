"""Which spans and counters of the benchmark's tracer fire on each command.

``bench/tracer.py`` wraps functions by module and name from outside the
package, so a function that moves to another module, or that a command
reaches through a different binding, silently stops being timed.  These
sets pin what a traced command records: one catalog document per
computing command, and a map whose twisted classes are heuristic, the
only ones that are compared.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from fixtrace import cli
from fixtrace.catalog import emit_document

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

HOMOLOGY_SPANS = {"cli.main", "cli.parse", "cli.render", "exactalg.homology",
                  "exactalg.matmul", "exactalg.snf", "simplicial.chain",
                  "simplicial.complex"}
REIDEMEISTER_SPANS = {
    "cli.main", "cli.parse", "cli.render", "exactalg.homology",
    "exactalg.matmul", "grouprings.class",
    "grouprings.consolidate", "grouprings.ring", "reidemeister.cover",
    "reidemeister.lift", "reidemeister.lift_map", "reidemeister.trace",
    "simplicial.chain", "simplicial.complex", "simplicial.pi1",
    "simplicial.pi1_endo"}
BUNDLE_SPANS = REIDEMEISTER_SPANS | {
    "exactalg.snf", "bundles.base_trace", "bundles.nielsen_additivity",
    "bundles.pair_check", "bundles.total_space", "bundles.verify_lefschetz",
    "bundles.verify_reidemeister"}
LIFT_COUNTERS = {"grouprings.ring_elements", "reidemeister.fox_calls"}

# The figure eight's map that flips both loops (0 -> 0, 1 <-> 2, 3 <-> 4):
# pi_1 is free of rank two and phi is not the identity, so its three
# classes are heuristic, and consolidation compares each pair with
# classes_equal; their abelianized keys (a Smith form of I - A) tell them
# apart.
FLIP_BOTH = {"complex": {"ref": "figure_eight"},
             "vertex_images": {"0": "0", "1": "2", "2": "1", "3": "4",
                               "4": "3"}}

# case -> (command, catalog entry or document, span names, counter names)
CASES = {
    "homology": ("homology", "torus7", HOMOLOGY_SPANS, set()),
    "lefschetz": ("lefschetz", "circle_reflection", HOMOLOGY_SPANS, set()),
    # pi_1 is F_1, whose classes are keyed by the Smith form of I - A
    "reidemeister": ("reidemeister", "circle_reflection",
                     REIDEMEISTER_SPANS | {"exactalg.snf"}, LIFT_COUNTERS),
    "reidemeister-heuristic": ("reidemeister", FLIP_BOTH,
                               REIDEMEISTER_SPANS | {"exactalg.snf",
                                                     "grouprings.compare"},
                               LIFT_COUNTERS),
    "bundle-verify": ("bundle-verify", "double_cover_reflection",
                      BUNDLE_SPANS, LIFT_COUNTERS),
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_command_records_its_spans(tmp_path, case):
    command, doc, spans, counters = CASES[case]
    path = tmp_path / "doc.json"
    path.write_text(emit_document(doc, {})[1] if isinstance(doc, str)
                    else json.dumps(doc), encoding="utf-8")
    tracer = _tracer_module().Tracer(command)
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command, str(path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert {span[0] for span in tracer.spans} == spans
    assert set(tracer.counts) == counters
    if case == "reidemeister-heuristic":
        assert json.loads(out.getvalue())["lhs"]["nielsen"] == 3
        assert sum(span[0] == "grouprings.compare"
                   for span in tracer.spans) == 3
