"""Exact fixed-point invariants for simplicial complexes and discrete bundles.

The submodules mirror the layers of the computation: ``exactalg``
(integer/rational linear algebra and chain complexes), ``simplicial``
(complexes, maps, fundamental groups), ``grouprings`` (twisted conjugacy
and shadow traces), ``reidemeister`` (universal-cover chain models and
the two Reidemeister-trace routes), ``bundles`` (discrete fibrations and
the factorization verifiers), ``catalog`` (fixtures with oracles) and
``cli`` (the command-line tool).  The most common entry points are
re-exported here.
"""

from .exactalg import (
    ChainComplex,
    ChainMap,
    IntMatrix,
    homology,
    hopf_chain_trace,
    lefschetz_from_homology,
    smith_normal_form,
    tensor_chain_map,
)
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    build_complex,
    chain_complex,
    induced_chain_map,
    induced_pi1_endo,
    lefschetz_number,
    pi1_presentation,
    product_complex,
)
from .grouprings import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupEndomorphism,
    GroupHomomorphism,
    ShadowElement,
    augment,
    classes_equal,
    nielsen,
    pushforward,
    twisted_class,
    twisted_hs_trace,
)
from .reidemeister import (
    FixedPointRecord,
    lift_map,
    lift_self_map,
    lift_to_universal_cover,
    reidemeister_trace_chain,
    reidemeister_trace_geometric,
)
from .bundles import (
    BundleSelfMapPair,
    DiscreteBundle,
    GraphBase,
    GraphSelfMap,
    Transport,
    base_reidemeister,
    fiber_composite,
    nielsen_additivity,
    refined_reidemeister,
    total_map,
    total_space,
    transport,
    verify_lefschetz_mult,
    verify_reidemeister_mult,
)

__version__ = "0.1.0"
