"""The package namespace: every exported name, loaded from its submodule on
first use, with nothing imported by ``import sierpspec`` itself."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sierpspec

# the names the package exported when it imported every submodule eagerly
EXPORTS = {
    "lattice": [
        "LatticeError", "MatrixParams", "SymVec", "Vec", "a_adic_expansion",
        "enumerate_digit_sets", "mod_a_reduce", "reconstruct", "signed_expansion",
        "signed_value", "verify_residue_decomposition",
    ],
    "fourier": [
        "ZeroSetWitness", "in_zero_set", "in_zero_set_sym", "mask", "mu_hat", "zero_set_1d",
    ],
    "treemap": [
        "CanonicalMapping", "KickedMapping", "KickError", "SpectrumPoint", "SpectrumPrefix",
        "SquareOffsets", "TableOffsets", "enumerate_spectrum", "index_to_word",
        "lambda_of_index", "level_index_bound", "tau_eval", "validate_tree_mapping",
        "word_to_index",
    ],
    "verify": [
        "OrthogonalityReport", "SamplingBox", "check_distinct_lines", "check_orthogonality",
        "check_projection_orthogonality", "gram_unitarity", "maximality_probe", "q_sum",
    ],
    "dimension": [
        "Beatty", "DimensionEstimate", "Explicit", "Periodic", "beurling_dim_estimate",
        "count_in_ball", "entropy_dim_closed_form", "entropy_dim_monte_carlo",
        "formula_dim_1d", "formula_dim_2d", "geometric_scales", "lacunary_check",
        "support_hausdorff_dim",
    ],
    "construct": [
        "IntermediateSpec", "build_intermediate_spectrum", "family_variants",
        "gamma_t_from_density", "pattern_lattice_points", "t_max",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]

# Run in a fresh process: what ``import sierpspec`` loads, its dir(), whether
# a submodule read as a package attribute is that submodule, and whether each
# name, read first through the package, is its submodule's object.
FRESH = """if True:
    import importlib, json, sys
    import sierpspec
    loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "sierpspec")
    listed = dir(sierpspec)
    modules = json.loads(sys.argv[1])
    submodules = [getattr(sierpspec, module) is importlib.import_module("sierpspec." + module)
                  for module in modules]
    same = [getattr(sierpspec, name) is getattr(importlib.import_module("sierpspec." + module), name)
            for module, names in modules.items() for name in names]
    print(json.dumps([loaded, listed, submodules, same]))
"""


def test_import_loads_nothing_and_each_name_is_its_submodules_object():
    root = str(Path(sierpspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH, json.dumps(EXPORTS)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded, listed, submodules, same = json.loads(proc.stdout)
    assert loaded == ["sierpspec"]
    assert set(NAMES) | set(EXPORTS) <= set(listed) and "__version__" in listed
    assert submodules == [True] * len(EXPORTS)
    assert same == [True] * len(NAMES)


def test_all_and_star_import_bind_exactly_the_exports():
    assert sierpspec.__all__ == NAMES
    namespace = {}
    exec("from sierpspec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(NAMES)
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"sierpspec.{module}")
        assert all(namespace[name] is getattr(submodule, name) for name in names)
    assert sierpspec.__version__ == "0.1.0"


# unknown, or defined in a submodule but never exported
@pytest.mark.parametrize("name", ["no_such_name", "resolve_points", "ColumnValues", "np"])
def test_an_unexported_name_raises_attribute_error(name):
    assert not hasattr(sierpspec, name)
    with pytest.raises(AttributeError, match=name):
        getattr(sierpspec, name)
