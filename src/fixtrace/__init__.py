"""Exact fixed-point invariants for simplicial complexes and discrete bundles.

The submodules mirror the layers of the computation: ``words`` (signed
words), ``exactalg`` (integer linear algebra and chain
complexes), ``simplicial`` (complexes, maps, fundamental groups),
``grouprings`` (twisted conjugacy and shadow traces), ``reidemeister``
(universal-cover chain models and the two Reidemeister-trace routes),
``bundles`` (discrete fibrations and the factorization verifiers),
``catalog`` (fixtures with oracles) and ``cli`` (the command-line tool).
The most common entry points are re-exported here.  Each one is imported
on first access (PEP 562), so ``import fixtrace`` loads no submodule and
a command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exactalg": (
        "ChainComplex",
        "ChainMap",
        "IntMatrix",
        "homology",
        "hopf_chain_trace",
        "lefschetz_from_homology",
        "smith_normal_form",
        "tensor_chain_map",
    ),
    "simplicial": (
        "SimplicialComplex",
        "SimplicialMap",
        "build_complex",
        "chain_complex",
        "induced_chain_map",
        "induced_pi1_endo",
        "lefschetz_number",
        "pi1_presentation",
        "product_complex",
    ),
    "grouprings": (
        "FiniteGroup",
        "FreeAbelianGroup",
        "FreeGroup",
        "GroupEndomorphism",
        "GroupHomomorphism",
        "ShadowElement",
        "augment",
        "classes_equal",
        "nielsen",
        "pushforward",
        "twisted_class",
        "twisted_hs_trace",
    ),
    "reidemeister": (
        "FixedPointRecord",
        "lift_map",
        "lift_self_map",
        "lift_to_universal_cover",
        "reidemeister_trace_chain",
        "reidemeister_trace_geometric",
    ),
    "bundles": (
        "BundleSelfMapPair",
        "DiscreteBundle",
        "GraphBase",
        "GraphSelfMap",
        "Transport",
        "base_reidemeister",
        "fiber_composite",
        "nielsen_additivity",
        "refined_reidemeister",
        "total_map",
        "total_space",
        "transport",
        "verify_lefschetz_mult",
        "verify_reidemeister_mult",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
