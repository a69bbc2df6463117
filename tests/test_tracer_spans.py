"""Which spans and counters of the benchmark's tracer fire on each command.

``bench/tracer.py`` wraps functions by module and name from outside the
package, so a function that moves to another module, or that a command
reaches through a different binding, silently stops being timed.  These
sets pin what a traced command records, one catalog document per
computing command.
"""

import contextlib
import importlib.util
import io
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
    "exactalg.matmul", "grouprings.class", "grouprings.compare",
    "grouprings.consolidate", "grouprings.ring", "reidemeister.cover",
    "reidemeister.lift", "reidemeister.lift_map", "reidemeister.trace",
    "simplicial.chain", "simplicial.complex", "simplicial.pi1",
    "simplicial.pi1_endo"}
BUNDLE_SPANS = REIDEMEISTER_SPANS | {
    "exactalg.snf", "bundles.base_trace", "bundles.nielsen_additivity",
    "bundles.pair_check", "bundles.total_space", "bundles.verify_lefschetz",
    "bundles.verify_reidemeister"}
LIFT_COUNTERS = {"grouprings.ring_elements", "reidemeister.fox_calls"}

# command -> (catalog entry, span names, counter names)
CASES = {
    "homology": ("torus7", HOMOLOGY_SPANS, set()),
    "lefschetz": ("circle_reflection", HOMOLOGY_SPANS, set()),
    "reidemeister": ("circle_reflection", REIDEMEISTER_SPANS, LIFT_COUNTERS),
    "bundle-verify": ("double_cover_reflection", BUNDLE_SPANS, LIFT_COUNTERS),
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", sorted(CASES))
def test_traced_command_records_its_spans(tmp_path, command):
    entry, spans, counters = CASES[command]
    path = tmp_path / "doc.json"
    path.write_text(emit_document(entry, {})[1], encoding="utf-8")
    tracer = _tracer_module().Tracer(command)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, str(path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert {span[0] for span in tracer.spans} == spans
    assert set(tracer.counts) == counters
