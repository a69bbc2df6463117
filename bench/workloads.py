"""Workload documents for the fixtrace benchmark, with independent oracles.

Each workload is a fixed mix of ``fixtrace`` commands.  The seed only
permutes: it picks new vertex names and a new declaration order for every
complex (and every bundle fiber), so a spanning tree, a basepoint or a
class representative may change but no invariant does.  The expected
values are derived by hand from H1 matrices and fixed-point counts, never
from the program's own output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from fixtrace import catalog as cat
from fixtrace.cli import serialize_complex, serialize_map_fixture, serialize_pair
from fixtrace.simplicial import SimplicialComplex, product_complex

@dataclass
class Expected:
    """What a correct report says besides exit 0 and verdict "pass";
    ``None`` fields are not checked."""

    betti: Optional[Tuple[int, ...]] = None
    lefschetz: Optional[int] = None
    nielsen: Optional[int] = None


@dataclass
class Command:
    """One CLI invocation: ``fixtrace <command> <doc>`` plus its oracle."""

    name: str
    command: str
    document: Dict
    expected: Expected
    group: str  # label used to slice the trace, e.g. "free-graph"


def det_i_minus(a: Sequence[Sequence[int]]) -> int:
    """det(I - A) for a 2x2 integer matrix: the Lefschetz number on T^2."""
    (a00, a01), (a10, a11) = a
    return (1 - a00) * (1 - a11) - a01 * a10


def torus_nielsen(a: Sequence[Sequence[int]]) -> int:
    """Nielsen number of a torus map: |det(I - A)|, which is 0 when L = 0."""
    return abs(det_i_minus(a))


def graph_lefschetz(a: Sequence[Sequence[int]]) -> int:
    """Lefschetz number of a connected-graph self-map: 1 - tr(A) on H1."""
    return 1 - sum(a[i][i] for i in range(len(a)))


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------

def relabeling(vertices: Sequence, rng: random.Random) -> Tuple[Dict, List]:
    """New names ``v<k>`` for the vertices and a shuffled declaration order."""
    ids = list(range(len(vertices)))
    rng.shuffle(ids)
    names = {v: f"v{k}" for v, k in zip(vertices, ids)}
    order = list(vertices)
    rng.shuffle(order)
    return names, [names[v] for v in order]


def complex_doc(k: SimplicialComplex, names: Dict, order: List,
                rng: random.Random) -> Dict:
    simplices = [[names[v] for v in k.vertex_ids(s)]
                 for s in k.maximal_simplices()]
    rng.shuffle(simplices)
    return {"vertices": order, "simplices": simplices}


def relabeled_complex(k: SimplicialComplex, rng: random.Random) -> Dict:
    names, order = relabeling(k.vertices, rng)
    return complex_doc(k, names, order, rng)


def relabeled_map(k: SimplicialComplex, images: Callable, rng: random.Random
                  ) -> Dict:
    """Map document of the self-map ``v -> images(v)`` on a relabeled ``k``."""
    names, order = relabeling(k.vertices, rng)
    pairs = [(names[v], names[images(v)]) for v in k.vertices]
    rng.shuffle(pairs)
    return {"complex": complex_doc(k, names, order, rng),
            "vertex_images": dict(pairs), "basepath": []}


def _rename_total_vertex(code: str, names: Dict) -> str:
    parts = code.split("|")
    fiber_parts = (3, 4) if parts[0] == "c" else (2,)
    for i in fiber_parts:
        parts[i] = names[parts[i]]
    return "|".join(parts)


def relabel_pair_doc(doc: Dict, rng: random.Random) -> Dict:
    """Relabel the fiber vertices of a serialized bundle pair document.

    Every fiber gets the same new names and the same shuffled declaration
    order; base vertices and edge ids keep their names, because the base
    map's edge words refer to them.
    """
    bundle = doc["bundle"]
    fiber_vertices = sorted({x for f in bundle["fibers"].values()
                             for x in f["vertices"]})
    names, _ = relabeling(fiber_vertices, rng)
    order_key = {x: rng.random() for x in fiber_vertices}

    def rename_images(mdoc):
        return {"vertex_images": {names[x]: names[y]
                                  for x, y in mdoc["vertex_images"].items()}}

    fibers = {}
    for b, f in bundle["fibers"].items():
        simplices = [[names[x] for x in s] for s in f["simplices"]]
        rng.shuffle(simplices)
        fibers[b] = {"vertices": [names[x] for x in
                                  sorted(f["vertices"], key=order_key.get)],
                     "simplices": simplices}
    out = {
        "bundle": {
            "base": bundle["base"],
            "fibers": fibers,
            "transports": {e: {"map": rename_images(t["map"]),
                               "inverse": rename_images(t["inverse"])}
                           for e, t in bundle["transports"].items()},
        },
        "base_map": doc["base_map"],
        "fiber_maps": {b: rename_images(m)
                       for b, m in doc["fiber_maps"].items()},
    }
    if "total_map" in doc:
        out["total_map"] = {"vertex_images": {
            _rename_total_vertex(k, names): _rename_total_vertex(w, names)
            for k, w in doc["total_map"]["vertex_images"].items()}}
    return out


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def staircase_torus(n: int) -> SimplicialComplex:
    return product_complex(cat.circle_complex(n), cat.circle_complex(n))


def torus_maps(n: int) -> Dict[str, Tuple[Callable, List[List[int]]]]:
    """Self-maps of Cn x Cn that are simplicial on the staircase triangulation.

    Each entry is (vertex map, its matrix A on H1 in the basis of the two
    circle factors).  Reflection x reflection and one-factor rotations are
    not simplicial on this triangulation, so they are absent.
    """
    def neg(v):
        i, j = int(v[0]), int(v[1])
        return (str((-i - 1) % n), str((-j - 1) % n))
    return {
        "negation": (neg, [[-1, 0], [0, -1]]),
        "swap": (lambda v: (v[1], v[0]), [[0, 1], [1, 0]]),
        "diagonal": (lambda v: (v[0], v[0]), [[1, 0], [1, 0]]),
        "constant": (lambda v: ("0", "0"), [[0, 0], [0, 0]]),
    }


def graph_maps() -> Dict[str, Tuple[SimplicialComplex, Dict, List[List[int]], int]]:
    """Self-maps of the figure eight (free pi_1 of rank 2), as
    (graph, images, A on H1, N).

    The loops are a = 0-1-2 and b = 0-3-4.  Nielsen numbers are hand
    counts: vertex 0 is the only fixed point of the first two maps, so
    N = 1 = L; flip-both also fixes the midpoints of edges 1-2 and 3-4,
    three essential points, so N = 3 = L.
    """
    fe = cat.figure_eight_complex()
    return {
        "fig8-swap": (fe, {"0": "0", "1": "3", "2": "4", "3": "1", "4": "2"},
                      [[0, 1], [1, 0]], 1),
        "fig8-swap-flip": (fe, {"0": "0", "1": "3", "2": "4", "3": "2",
                                "4": "1"}, [[0, -1], [1, 0]], 1),
        "fig8-flip-both": (fe, {"0": "0", "1": "2", "2": "1", "3": "4",
                                "4": "3"}, [[-1, 0], [0, -1]], 3),
    }


# ---------------------------------------------------------------------------
# The three mixes
# ---------------------------------------------------------------------------

HOMOLOGY_TORI = (6, 7, 8, 9)
LEFSCHETZ_TORI = (6, 7)
REIDEMEISTER_TORI = (6, 7, 8)
# The negation map on C10 x C10 needs more memory than any relabeling of
# the figure-eight maps, whose orbit search varies with the seed, so the
# workload's peak RSS does not depend on the seed.
REIDEMEISTER_PEAK_TORUS = 10
BUNDLE_PRODUCTS = (
    ("reflection", "reflection", 3), ("reflection", "reflection", 5),
    ("constant", "reflection", 3), ("constant", "reflection", 4),
    ("identity", "reflection", 3), ("rotation", "identity", 4),
)


def homology_lefschetz(rng: random.Random) -> List[Command]:
    out = []
    for n in HOMOLOGY_TORI:
        out.append(Command(f"homology-torus{n}", "homology",
                           relabeled_complex(staircase_torus(n), rng),
                           Expected(betti=(1, 2, 1)), "torus"))
    for name, k, betti in (("torus7", cat.torus7_complex(), (1, 2, 1)),
                           ("figure_eight", cat.figure_eight_complex(), (1, 2)),
                           ("circle", cat.circle_complex(), (1, 1))):
        out.append(Command(f"homology-catalog-{name}", "homology",
                           relabeled_complex(k, rng), Expected(betti=betti),
                           "catalog"))
    for n in LEFSCHETZ_TORI:
        k = staircase_torus(n)
        for name, (f, a) in torus_maps(n).items():
            out.append(Command(f"lefschetz-torus{n}-{name}", "lefschetz",
                               relabeled_map(k, f, rng),
                               Expected(lefschetz=det_i_minus(a)), "torus"))
    # Circle reflection: A = [-1] on H1, so L = 1 - (-1) = 2.
    fix = cat.circle_reflection_fixture()
    out.append(Command("lefschetz-catalog-circle_reflection", "lefschetz",
                       relabeled_map(fix.complex, fix.map.apply_vertex, rng),
                       Expected(lefschetz=graph_lefschetz([[-1]])), "catalog"))
    return out


def reidemeister_trace(rng: random.Random) -> List[Command]:
    out = []
    for n in REIDEMEISTER_TORI:
        k = staircase_torus(n)
        for name, (f, a) in torus_maps(n).items():
            out.append(Command(
                f"reidemeister-torus{n}-{name}", "reidemeister",
                relabeled_map(k, f, rng),
                Expected(lefschetz=det_i_minus(a), nielsen=torus_nielsen(a)),
                "torus"))
    k = staircase_torus(REIDEMEISTER_PEAK_TORUS)
    f, a = torus_maps(REIDEMEISTER_PEAK_TORUS)["negation"]
    out.append(Command(
        f"reidemeister-torus{REIDEMEISTER_PEAK_TORUS}-negation", "reidemeister",
        relabeled_map(k, f, rng),
        Expected(lefschetz=det_i_minus(a), nielsen=torus_nielsen(a)), "torus"))
    for name, (k, images, a, n_expected) in graph_maps().items():
        out.append(Command(
            f"reidemeister-{name}", "reidemeister",
            relabeled_map(k, images.__getitem__, rng),
            Expected(lefschetz=graph_lefschetz(a), nielsen=n_expected),
            "free-graph"))
    return out


def bundle_factorization(rng: random.Random) -> List[Command]:
    out = []
    for base, fiber, size in BUNDLE_PRODUCTS:
        pair = cat.trivial_product_pair(base, fiber, fiber_size=size)
        # L and N of a product of circle maps multiply; N = |L| on T^2.
        lef = cat.BASE_LEFSCHETZ[base] * cat.FIBER_LEFSCHETZ[fiber]
        out.append(Command(
            f"bundle-{base}x{fiber}-fiber{size}", "bundle-verify",
            relabel_pair_doc(serialize_pair(pair), rng),
            Expected(lefschetz=lef, nielsen=abs(lef)), "product"))
    oracle = cat.double_cover_oracle()
    out.append(Command(
        "bundle-catalog-double_cover_reflection", "bundle-verify",
        relabel_pair_doc(serialize_pair(cat.double_cover_reflection_pair()),
                         rng),
        Expected(lefschetz=oracle["total_lefschetz"], nielsen=oracle["nielsen"]),
        "catalog"))
    # A fixed-point-free map: L = 0 * 0 and no essential class.
    out.append(Command(
        "bundle-catalog-fixed_point_free_rotation", "bundle-verify",
        relabel_pair_doc(serialize_pair(cat.fixed_point_free_rotation_pair()),
                         rng),
        Expected(lefschetz=0, nielsen=0), "catalog"))
    return out


WORKLOADS: Dict[str, Callable[[random.Random], List[Command]]] = {
    "homology-lefschetz": homology_lefschetz,
    "reidemeister-trace": reidemeister_trace,
    "bundle-factorization": bundle_factorization,
}


# ---------------------------------------------------------------------------
# Catalog coverage
# ---------------------------------------------------------------------------

# The command that reads each kind of catalog document; chain models have
# no command.
COVERAGE_COMMANDS = {"complex": ["homology"],
                     "selfmap": ["lefschetz", "reidemeister"],
                     "bundle_pair": ["bundle-verify"],
                     "chain_model": []}


def catalog_documents() -> List[Tuple[str, str, Optional[Dict]]]:
    """(entry name, kind, document) for every catalog entry at its defaults,
    serialized as ``fixtrace catalog emit`` writes it."""
    out = []
    for name in sorted(cat.CATALOG):
        entry = cat.CATALOG[name]
        if entry.kind == "chain_model":
            out.append((name, entry.kind, None))
            continue
        obj = entry.build(**entry.default_params)
        serialize = {"complex": serialize_complex,
                     "selfmap": serialize_map_fixture,
                     "bundle_pair": serialize_pair}[entry.kind]
        out.append((name, entry.kind, serialize(obj)))
    return out


def check_report(cmd: Command, exit_code: int, stdout: bytes) -> Optional[str]:
    """None when the report matches the oracle, else the first mismatch."""
    exp = cmd.expected
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        rep = json.loads(stdout.decode("utf-8"))
    except ValueError as exc:
        return f"stdout is not a JSON report ({exc})"
    if rep.get("verdict") != "pass":
        return f"verdict {rep.get('verdict')!r}, expected 'pass'"
    lhs, rhs = rep.get("lhs"), rep.get("rhs")
    if exp.betti is not None:
        betti = tuple(t["betti"] for t in rep["tables"])
        torsion = [t["torsion"] for t in rep["tables"]]
        if betti != exp.betti or any(torsion):
            return f"homology {betti} {torsion}, expected {exp.betti}, no torsion"
    if exp.lefschetz is None:
        return None
    if cmd.command == "lefschetz":
        got = {"lhs": lhs, "rhs": rhs}
        want = {"lhs": exp.lefschetz, "rhs": exp.lefschetz}
    elif cmd.command == "reidemeister":
        got = {k: lhs.get(k) for k in ("lefschetz", "augmentation", "nielsen")}
        want = {"lefschetz": exp.lefschetz, "augmentation": exp.lefschetz,
                "nielsen": exp.nielsen}
    else:
        got = {"L": (lhs.get("lefschetz"), rhs.get("lefschetz")),
               "N": (lhs.get("nielsen"), rhs.get("nielsen"))}
        want = {"L": (exp.lefschetz, exp.lefschetz),
                "N": (exp.nielsen, exp.nielsen)}
    if got != want:
        return f"{got}, expected {want}"
    return None
