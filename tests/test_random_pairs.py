"""Random valid bundle pairs with the paper's two theorems as the oracle.

Both factorization theorems hold on every valid pair, so ``bundle-verify``
may answer a valid pair with ``pass`` (exit 0), or with ``unsupported`` or
``indeterminate`` (exit 3) and a known reason, but never with ``fail``
(exit 1), and never call it malformed (exit 2).  The pairs are drawn from
a fixed seed over small graph bases, C3 and C4 fibers, dihedral transports
and dihedral or constant fiber maps, and are valid by construction: the
fiber maps are compatible with the transports on fiber homology.
"""

import json
import random
import re

from fixtrace import catalog as cat
from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle, GraphBase,
                              GraphSelfMap, Transport)
from fixtrace.cli import main, serialize_pair
from fixtrace.simplicial import SimplicialMap
from tests.oracles import check_class_paths, figure_eight_base, interval_base

SEED = 20
PAIRS = 300
DEPTH = 3

# Every exit-3 flag matches one of these.
REASONS = re.compile("|".join((
    r"a prism square maps onto",
    r"constructed vertex images are not simplicial",
    r"edge \S+ has \d+ layers but the edge word it maps to has \d+",
    r"fundamental group not recognized",
    r"heuristic base classes",
    r"(twisted )?class comparison returned Unknown",
)))

# The exact outcome tally: each pair keyed by its exit code and the reason
# that stopped it, its last flag cut at the first ": ".  The ROADMAP items
# that shrink "unsupported" move it (9 and 18: total groups that are not
# recognized; 10 and 15: total maps that are not constructible), and each
# of them re-pins it.
TALLY = {
    (0, None): 54,
    (3, "a prism square maps onto four vertices that do not bound a square "
        "of the total space"): 114,
    (3, "a prism square maps onto three distinct vertices"): 53,
    (3, "constructed vertex images are not simplicial"): 50,
    (3, "edge e0 has 3 layers but the edge word it maps to has 4; no prism "
        "map realizes it"): 3,
    (3, "fundamental group not recognized (unsupported)"): 26,
}


def _bases():
    return {
        "one_loop": GraphBase(["b0"], [("a", "b0", "b0")], [], "b0"),
        "figure_eight": figure_eight_base(),
        "circle2": cat.circle_base(2),
        "circle3": cat.circle_base(3),
        "theta": GraphBase(["b0", "b1"], [("e0", "b0", "b1"),
                                          ("e1", "b0", "b1"),
                                          ("e2", "b0", "b1")],
                           ["e0"], "b0"),
        "interval": interval_base(),
        "interval_loop": GraphBase(["b0", "b1"], [("e0", "b0", "b1"),
                                                  ("a", "b1", "b1")],
                                   ["e0"], "b0"),
    }


def _dihedral(fib, n, k, sign):
    """x -> k + sign * x on the cycle C_n."""
    return SimplicialMap(fib, fib, {str(i): str((k + sign * i) % n)
                                    for i in range(n)})


def _base_map(rng, base):
    """Vertex images and one edge word of length at most one per edge,
    or None when the drawn vertex images admit no such words."""
    images = {v: rng.choice(base.vertices) for v in base.vertices}
    words = {}
    for (e, s, d) in base.edges:
        options = [[(e2, sign)] for (e2, _, _) in base.edges
                   for sign in (1, -1)
                   if base.step_endpoints((e2, sign)) == (images[s], images[d])]
        if images[s] == images[d]:
            options.append([])
        if not options:
            return None
        words[e] = rng.choice(options)
    return GraphSelfMap(base, images, words)


def _signs(rng, base, bmap):
    """Orientation signs of the transports and of the fiber maps under which
    f_d . t_e and t(word of e) . f_s agree on H_1 over every edge e, or None
    when the drawn transport signs admit none."""
    t = {e: rng.choice((1, -1)) for (e, _, _) in base.edges}

    def constraint(e):  # t_e times the sign of the transport along e's word
        out = t[e]
        for (e2, _) in bmap.edge_words[e]:
            out *= t[e2]
        return out

    f = {base.basepoint: rng.choice((1, -1))}
    for v in base.vertices:  # tree paths start at the basepoint
        for (e, _) in base.tree_path(v):
            s, d = base.edge_by_id[e]
            known, new = (s, d) if s in f else (d, s)
            f.setdefault(new, f[known] * constraint(e))
    if all(f[s] * f[d] == constraint(e) for (e, s, d) in base.edges):
        return t, f
    return None


def random_pair(rng):
    base = rng.choice(list(_bases().values()))
    signs = None
    while signs is None:
        bmap = _base_map(rng, base)
        if bmap is not None:
            signs = _signs(rng, base, bmap)
    t, f = signs
    n = rng.choice((3, 4))
    fib = cat.circle_complex(n)
    transports = {}
    for (e, _, _) in base.edges:
        k = rng.randrange(n)
        # the exact inverse, or sometimes another map of the same
        # orientation, which inverts it on homology only
        k_inv = -k * t[e] if rng.random() < 0.7 else rng.randrange(n)
        transports[e] = Transport(_dihedral(fib, n, k, t[e]),
                                  _dihedral(fib, n, k_inv, t[e]))
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    constant = rng.random() < 0.25
    fiber_maps = {}
    for v in base.vertices:
        if constant:
            c = str(rng.randrange(n))
            fiber_maps[v] = SimplicialMap(fib, fib,
                                          {x: c for x in fib.vertices})
        else:
            fiber_maps[v] = _dihedral(fib, n, rng.randrange(n), f[v])
    return BundleSelfMapPair(bundle, bmap, fiber_maps)


def test_random_valid_pairs_never_fail_nor_read_as_malformed(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "pair.json"
    outcomes = {}
    for i in range(PAIRS):
        pair = random_pair(rng)
        check_class_paths(pair, DEPTH)
        doc = serialize_pair(pair)
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["bundle-verify", str(path), "--depth", str(DEPTH)])
        out, err = capsys.readouterr()
        shown = f"pair {i}: {json.dumps(doc)}\nstdout: {out}\nstderr: {err}"
        assert code in (0, 3), shown
        reason = None
        if code == 3:
            flags = json.loads(out)["flags"]
            assert flags and all(REASONS.match(f) for f in flags), shown
            reason = flags[-1].split(": ", 1)[0]
        outcomes[code, reason] = outcomes.get((code, reason), 0) + 1
    assert outcomes == TALLY
