"""The public names: each written once, in ``cremlat._NAMES``, and bound on first use."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import cremlat

# __all__ as it stood while __init__ imported every name eagerly: sorted()
EXPORTED = [
    "BasePointCollision", "BowditchResult", "Characteristic", "CharacteristicReport",
    "Configuration", "CremlatError", "CurveWitness", "ECheckReport", "FiniteMetric",
    "FlatCertificate", "FlatRow", "FlatTable", "GENERAL_ADJACENT", "GermSet", "Graph",
    "GreedyStep", "HalphenVector", "IdentityTwist", "IndexOutOfRange", "InvalidCharacteristic",
    "InvalidPair", "JONQUIERES_ADJACENT", "LengthBounds", "MalformedFamily",
    "MissingResolutionData", "NoDecrease", "NoetherViolation", "NotInKPerp", "NotOnHyperboloid",
    "PicardManinClass", "PointId", "QUASI_ADJACENT_ONLY", "SubgraphFamily", "TooManyBasePoints",
    "TwistParam", "UNCLASSIFIED", "UnknownPoint", "UnsupportedClassSupport", "WrongArity",
    "almost_general_position", "apply", "boundary_class", "bowditch_check", "canonical",
    "cell_member", "classify_germ", "complete_graph", "compose_disjoint", "cycle_graph",
    "delta_backend", "distance", "exceptional", "flat_certificate", "flat_growth",
    "four_point_delta", "generator_a1", "generator_a2", "geodesic_family", "greedy_length",
    "greedy_predecessor", "grid_graph", "identity_characteristic", "in_E", "intersect",
    "inverse", "is_adherent", "is_jonquieres", "is_special", "jonquieres_characteristic",
    "length_lower_deg", "length_lower_md", "line", "line_vector", "md", "path_graph",
    "point_vector", "self_intersection", "staircase_family", "standard_quadratic", "translate",
    "twist_characteristic", "twist_degree", "validate",
]


def test_all_lists_every_public_name():
    # a name listed twice, under a module that only re-imports it, or under
    # one that lacks it, fails here; so does any change to __all__
    listed = [name for names in cremlat._NAMES.values() for name in names]
    assert len(listed) == len(set(listed))
    assert cremlat.__all__ == EXPORTED == sorted(listed)
    for module, names in cremlat._NAMES.items():
        home = importlib.import_module(f"cremlat.{module}")
        for name in names:
            value = getattr(cremlat, name)
            assert value is vars(home)[name], name
            if getattr(value, "__module__", "").startswith("cremlat."):
                assert value.__module__ == home.__name__, name
    namespace = {}
    exec("from cremlat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTED


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(cremlat, "rational_from")  # a serialize name, not exported
    assert set(EXPORTED) <= set(dir(cremlat))


def test_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import cremlat\n"
        "print(sorted(m for m in sys.modules if m.startswith('cremlat.')))\n"
        "cremlat.in_E\n"
        "print(sorted(m for m in sys.modules if m.startswith('cremlat.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[]\n['cremlat._exact', 'cremlat.bubble', 'cremlat.errors', 'cremlat.lattice']\n"
    )


# each import in a fresh interpreter, so an import cycle that module order
# in one process would mask (a leg imported inside a function) shows here
@pytest.mark.parametrize(
    "argv",
    [["-c", f"import cremlat.{m.name}"] for m in pkgutil.iter_modules(cremlat.__path__)]
    + [["-m", "cremlat", "--help"]],
    ids=lambda argv: argv[-1],
)
def test_module_imports_alone(argv):
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
