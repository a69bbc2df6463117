"""Tests of the benchmark's own parts: oracles, relabeling, statistics and
the tracer.  Run with ``python -m pytest bench/tests``."""

import contextlib
import io
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from fixtrace import catalog as cat  # noqa: E402
from fixtrace import cli, exactalg  # noqa: E402
from fixtrace.cli import serialize_pair  # noqa: E402


def run_cli(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, str(path)])
    return code, out.getvalue().encode()


# -- oracle tables ---------------------------------------------------------

def test_torus_oracles_on_hand_cases():
    # L = 1 - tr A + det A on T^2, so det(I - A) for these hand matrices:
    assert wl.det_i_minus([[-1, 0], [0, -1]]) == 4
    assert wl.det_i_minus([[0, 1], [1, 0]]) == 0
    assert wl.det_i_minus([[1, 0], [1, 0]]) == 0
    assert wl.det_i_minus([[0, 0], [0, 0]]) == 1
    assert wl.det_i_minus([[2, 1], [1, 1]]) == -1
    assert wl.torus_nielsen([[2, 1], [1, 1]]) == 1
    assert wl.torus_nielsen([[0, 1], [1, 0]]) == 0


def test_graph_oracle_on_hand_cases():
    assert wl.graph_lefschetz([[-1]]) == 2          # circle reflection
    assert wl.graph_lefschetz([[-1, 0], [0, -1]]) == 3
    assert wl.graph_lefschetz([[0, -1], [1, 0]]) == 1


def test_bundle_oracle_tables():
    lef = {(b, f): cat.BASE_LEFSCHETZ[b] * cat.FIBER_LEFSCHETZ[f]
           for b, f, _ in wl.BUNDLE_PRODUCTS}
    assert lef[("reflection", "reflection")] == 4
    assert lef[("constant", "reflection")] == 2
    assert lef[("identity", "reflection")] == 0
    assert lef[("rotation", "identity")] == 0


def test_check_report_rejects_wrong_values():
    cmd = wl.Command("x", "lefschetz", {}, wl.Expected(lefschetz=4), "torus")
    good = json.dumps({"verdict": "pass", "lhs": 4, "rhs": 4}).encode()
    assert wl.check_report(cmd, 0, good) is None
    bad = json.dumps({"verdict": "pass", "lhs": 3, "rhs": 3}).encode()
    assert wl.check_report(cmd, 0, bad) is not None
    assert wl.check_report(cmd, 1, good) is not None
    assert wl.check_report(cmd, 0, b"Traceback") is not None


# -- relabeling keeps the invariants ---------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabeled_torus_documents_keep_invariants(tmp_path, seed):
    rng = random.Random(seed)
    k = wl.staircase_torus(4)
    doc = wl.relabeled_complex(k, rng)
    assert doc["vertices"] != [str(v) for v in k.vertices]
    cmd = wl.Command("h", "homology", doc, wl.Expected(betti=(1, 2, 1)), "")
    assert wl.check_report(cmd, *run_cli(tmp_path, "homology", doc)) is None
    for name, (f, a) in wl.torus_maps(4).items():
        doc = wl.relabeled_map(k, f, rng)
        exp = wl.Expected(lefschetz=wl.det_i_minus(a),
                          nielsen=wl.torus_nielsen(a))
        for command in ("lefschetz", "reidemeister"):
            cmd = wl.Command(name, command, doc, exp, "")
            assert wl.check_report(
                cmd, *run_cli(tmp_path, command, doc)) is None, (name, command)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_graph_maps_keep_invariants(tmp_path, seed):
    rng = random.Random(seed)
    for name, (k, images, a, n) in wl.graph_maps().items():
        doc = wl.relabeled_map(k, images.__getitem__, rng)
        cmd = wl.Command(name, "reidemeister", doc, wl.Expected(
            lefschetz=wl.graph_lefschetz(a), nielsen=n), "")
        assert wl.check_report(
            cmd, *run_cli(tmp_path, "reidemeister", doc)) is None, name


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_pairs_keep_invariants(tmp_path, seed):
    rng = random.Random(seed)
    oracle = cat.double_cover_oracle()
    cases = [(cat.double_cover_reflection_pair(), oracle["total_lefschetz"],
              oracle["nielsen"]),
             (cat.trivial_product_pair("reflection", "reflection", 3), 4, 4)]
    for pair, lef, nielsen in cases:
        doc = wl.relabel_pair_doc(serialize_pair(pair), rng)
        fiber = doc["bundle"]["fibers"]["b0"]["vertices"]
        assert all(x.startswith("v") for x in fiber)
        cmd = wl.Command("p", "bundle-verify", doc,
                         wl.Expected(lefschetz=lef, nielsen=nielsen), "")
        assert wl.check_report(
            cmd, *run_cli(tmp_path, "bundle-verify", doc)) is None


def test_same_seed_same_documents():
    a = wl.bundle_factorization(random.Random(7))
    b = wl.bundle_factorization(random.Random(7))
    assert [c.document for c in a] == [c.document for c in b]


# -- statistics ------------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_nearest_rank_percentile():
    values = list(range(1, 41))
    assert run.percentile(values, 75.0) == 30
    assert run.percentile(values, 50.0) == 20
    assert run.percentile([5.0], 99.0) == 5.0


# -- child guards ----------------------------------------------------------

def test_wall_clock_guard_kills_a_slow_child(tmp_path):
    runner = run.Runner(tmp_path, deadline=time.perf_counter() + 1.5)
    res = runner.run([sys.executable, "-c", "import time; time.sleep(30)"])
    assert res.signal == signal.SIGALRM
    assert res.wall_s < 10


def test_address_space_guard_refuses_a_huge_allocation(tmp_path):
    # The cap refuses the request up front, so no memory is used.
    runner = run.Runner(tmp_path, deadline=time.perf_counter() + 60)
    res = runner.run([sys.executable, "-c",
                      f"bytearray({2 * run.CMD_ADDRESS_SPACE})"])
    assert res.exit_code == 1
    assert res.signal is None


# -- tracer ----------------------------------------------------------------

def test_untraced_runs_are_unwrapped(tmp_path):
    # Importing the benchmark wraps nothing, and an untraced child is the
    # plain CLI with no tracer on its command line.
    assert exactalg.smith_normal_form.__module__ == "fixtrace.exactalg"
    assert not hasattr(exactalg.smith_normal_form, "__wrapped__")
    assert not hasattr(exactalg.IntMatrix.__mul__, "__wrapped__")
    argv = []
    runner = run.Runner(tmp_path, deadline=0.0)
    runner.run = argv.extend
    runner.cli("homology", tmp_path / "doc.json")
    assert argv[1:3] == ["-m", "fixtrace.cli"]
    assert not any("tracer" in a for a in argv)


def test_tracer_restores_every_target():
    from fixtrace import grouprings
    before = (exactalg.smith_normal_form, grouprings.smith_normal_form,
              exactalg.IntMatrix.__mul__, cli.main)
    t = tracer.Tracer("test")
    t.install()
    try:
        assert grouprings.smith_normal_form is exactalg.smith_normal_form
        assert hasattr(grouprings.smith_normal_form, "__wrapped__")
        assert hasattr(cli.main, "__wrapped__")
    finally:
        t.uninstall()
    assert (exactalg.smith_normal_form, grouprings.smith_normal_form,
            exactalg.IntMatrix.__mul__, cli.main) == before


def test_traced_homology_of_a_two_complex_runs_nine_smith_forms(tmp_path):
    doc = wl.relabeled_complex(wl.staircase_torus(4), random.Random(0))
    t = tracer.Tracer("0:homology")
    t.install()
    try:
        code, _ = run_cli(tmp_path, "homology", doc)
    finally:
        t.uninstall()
    assert code == 0
    summary = tracer.Summary()
    summary.add(json.loads(json.dumps(t.dump())))
    metrics = tracer.layer_metrics(summary)
    assert metrics["exactalg.snf_calls"] == 9
    assert metrics["exactalg.snf_entries"] > 0
    assert 0.0 < metrics["exactalg.share"] <= 1.0
    assert metrics["bundles.total_space_calls"] == 0


def test_summary_self_time_subtracts_children():
    dump = {"counts": {"reidemeister.fox_calls": 3}, "spans": [
        ["cli.main", 0.0, 10.0, -1, "c", None],
        ["exactalg.snf", 1.0, 4.0, 0, "c", 6],
        ["grouprings.class", 5.0, 9.0, 0, "c", "heuristic"],
        ["grouprings.compare", 6.0, 7.0, 2, "c", "unknown"],
    ]}
    s = tracer.Summary()
    s.add(dump)
    m = tracer.layer_metrics(s)
    assert s.self_s["cli.main"] == pytest.approx(3.0)
    assert m["exactalg.snf_s"] == pytest.approx(3.0)
    assert m["exactalg.snf_entries"] == 6
    assert m["grouprings.class_s"] == pytest.approx(4.0)
    assert m["grouprings.compare_s"] == pytest.approx(1.0)
    assert m["grouprings.class_heuristic_ratio"] == 1.0
    assert m["grouprings.compare_unknown_ratio"] == 1.0
    assert m["reidemeister.fox_calls"] == 3
    assert m["trace.main_s"] == pytest.approx(10.0)
