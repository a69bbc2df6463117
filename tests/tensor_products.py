"""Tensor products of chain complexes and of self chain maps.

The total complex of C (x) D is an independent check on the Lefschetz
number: L(f (x) g) = L(f) L(g) (acceptance criterion 6).  No command
builds tensor products, so they live with the tests.
"""

from __future__ import annotations

from fixtrace.exactalg import ChainComplex, ChainMap, ExactAlgError, IntMatrix


def _tensor_index(c: ChainComplex, d: ChainComplex):
    """Basis bookkeeping for the total complex of the tensor bicomplex.

    Degree k basis: triples (p, a, b) with p + q = k, a < rank_p(C),
    b < rank_q(D), ordered by p ascending then a then b.
    """
    top = c.top_degree + d.top_degree
    index = []
    offset = []
    for k in range(top + 1):
        idx = {}
        cur = 0
        for p in range(k + 1):
            q = k - p
            np, nq = c.rank(p), d.rank(q)
            if np and nq:
                idx[p] = cur
                cur += np * nq
        index.append(idx)
        offset.append(cur)
    return top, index, offset


def tensor_complex(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Total complex of C (x) D with boundary d(x) (x) y + (-1)^p x (x) d(y)."""
    top, index, sizes = _tensor_index(c, d)
    degrees = sizes
    boundaries = []
    for k in range(1, top + 1):
        rows = sizes[k - 1]
        cols = sizes[k]
        ent = [0] * (rows * cols)
        for p, base in index[k].items():
            q = k - p
            np, nq = c.rank(p), d.rank(q)
            bp = c.boundary(p)
            bq = d.boundary(q)
            sign = (-1) ** p
            for a in range(np):
                for b in range(nq):
                    col = base + a * nq + b
                    if p - 1 in index[k - 1]:
                        tbase = index[k - 1][p - 1]
                        nq_t = d.rank(q)
                        for a2 in range(c.rank(p - 1)):
                            v = bp[a2, a]
                            if v:
                                row = tbase + a2 * nq_t + b
                                ent[row * cols + col] += v
                    if p in index[k - 1]:
                        tbase = index[k - 1][p]
                        nq_t = d.rank(q - 1)
                        for b2 in range(d.rank(q - 1)):
                            v = bq[b2, b]
                            if v:
                                row = tbase + a * nq_t + b2
                                ent[row * cols + col] += sign * v
        boundaries.append(IntMatrix(rows, cols, ent))
    return ChainComplex(degrees, boundaries)


def tensor_chain_map(m1: ChainMap, m2: ChainMap) -> ChainMap:
    """Self chain map f (x) g on the total complex of the tensor bicomplex."""
    if any((m.source.degrees, m.source.boundaries)
           != (m.target.degrees, m.target.boundaries) for m in (m1, m2)):
        raise ExactAlgError("tensor_chain_map requires self maps")
    c, d = m1.source, m2.source
    total = tensor_complex(c, d)
    top, index, sizes = _tensor_index(c, d)
    comps = []
    for k in range(top + 1):
        n = sizes[k]
        ent = [0] * (n * n)
        for p, base in index[k].items():
            q = k - p
            np, nq = c.rank(p), d.rank(q)
            fp = m1.component(p)
            gq = m2.component(q)
            for a in range(np):
                for b in range(nq):
                    col = base + a * nq + b
                    for a2 in range(np):
                        va = fp[a2, a]
                        if not va:
                            continue
                        for b2 in range(nq):
                            vb = gq[b2, b]
                            if vb:
                                row = base + a2 * nq + b2
                                ent[row * n + col] += va * vb
        comps.append(IntMatrix(n, n, ent))
    return ChainMap(total, total, comps)
