"""Exact-arithmetic invariants of Weyl groups and finite groups of Lie type.

Subpackages by topic:

- ``cyclotomic``: products of cyclotomic polynomials, cyclotomic values,
  valuations, integer factorization utilities;
- ``rootsystem``: the classification data (degrees, root counts, Weyl orders,
  reflection generators) and type-expression parsing;
- ``weylchar``: characteristic-polynomial tables and the mu invariants;
- ``reconstruct``: recovering a type from its polynomial family;
- ``orders``: orders of finite semisimple groups and their determination;
- ``coincidence``: the abelian group of order-coincidence pairs;
- ``compalg``: split octonions and 27-dimensional Jordan algebras;
- ``cli``: the command-line front end and table cache.
"""

from .rootsystem import SemisimpleType, SimpleType, parse_type, render

__all__ = ["SemisimpleType", "SimpleType", "parse_type", "render"]

__version__ = "0.1.0"
