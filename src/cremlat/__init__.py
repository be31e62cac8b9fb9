"""Exact lattice models for plane birational maps and their hyperbolic geometry.

Submodules:

* bubble: symbolic point configurations (proper and infinitely near points).
* lattice: finitely supported classes, pairing, hyperboloid distance,
  membership in the effective-side convex set.
* cremona: numerical characteristics, validation, lattice action, composition.
* halphen: the rank-10 lattice and its translation twists.
* length: decomposition-length bounds (two lower bounds, greedy upper bound).
* hypgraph: four-point constants, thin-triangle checks, quasi-flat growth.
* voronoi: cell membership against germ sets, adjacency classification.
* serialize / cli: file formats and the batch front-end.

``import cremlat`` loads none of them.  Each public name is listed once, in
``_NAMES`` under the module that defines it, and that module is imported the
first time the name is read (PEP 562), so ``cremlat.in_E`` loads the lattice
leg and nothing of the Halphen or hyperbolicity legs.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "bubble": ("Configuration", "PointId", "almost_general_position", "is_adherent"),
    "cremona": (
        "Characteristic", "CharacteristicReport", "NoetherViolation", "apply", "compose_disjoint",
        "identity_characteristic", "inverse", "is_jonquieres", "jonquieres_characteristic", "md",
        "standard_quadratic", "validate",
    ),
    "errors": (
        "BasePointCollision", "CremlatError", "IdentityTwist", "IndexOutOfRange",
        "InvalidCharacteristic", "InvalidPair", "MalformedFamily", "MissingResolutionData",
        "NoDecrease", "NotInKPerp", "NotOnHyperboloid", "TooManyBasePoints", "UnknownPoint",
        "UnsupportedClassSupport", "WrongArity",
    ),
    "halphen": (
        "HalphenVector", "TwistParam", "canonical", "generator_a1", "generator_a2", "line_vector",
        "point_vector", "translate", "twist_characteristic", "twist_degree",
    ),
    "hypgraph": (
        "BowditchResult", "FiniteMetric", "FlatCertificate", "FlatRow", "FlatTable", "Graph",
        "SubgraphFamily", "bowditch_check", "complete_graph", "cycle_graph", "delta_backend",
        "flat_certificate", "flat_growth", "four_point_delta", "geodesic_family", "grid_graph",
        "path_graph", "staircase_family",
    ),
    "lattice": (
        "CurveWitness", "ECheckReport", "PicardManinClass", "distance", "exceptional", "in_E",
        "intersect", "is_special", "line", "self_intersection",
    ),
    "length": (
        "GreedyStep", "LengthBounds", "greedy_length", "greedy_predecessor", "length_lower_deg",
        "length_lower_md",
    ),
    "voronoi": (
        "GENERAL_ADJACENT", "JONQUIERES_ADJACENT", "QUASI_ADJACENT_ONLY", "UNCLASSIFIED",
        "GermSet", "boundary_class", "cell_member", "classify_germ",
    ),
}

_MODULE = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE)


def __getattr__(name: str):
    module = _MODULE.get(name)
    if module is None:
        from ._exact import cut_repr

        raise AttributeError(f"module {cut_repr(__name__)} has no attribute {cut_repr(name)}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
