"""Exact fixed-point invariants for simplicial complexes and discrete bundles.

The submodules mirror the layers of the computation: ``words`` (signed
words), ``exactalg`` (integer linear algebra and chain
complexes), ``simplicial`` (complexes, maps and their chains),
``presentations`` (fundamental groups and induced endomorphisms),
``grouprings`` (twisted conjugacy and shadow traces), ``reidemeister``
(universal-cover chain models and the two Reidemeister-trace routes),
``bundles`` (discrete fibrations and the factorization verifiers),
``catalog`` (fixtures with oracles), ``documents`` and ``pairs`` (the
JSON document formats) and ``cli`` (the command-line tool).
Import each name from the submodule that defines it: ``import fixtrace``
loads no submodule, so a command loads only the layers it runs.
"""

__version__ = "0.1.0"
