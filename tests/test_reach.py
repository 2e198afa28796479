"""Every function in ``src/gaplab`` is reached by a CLI run or is an oracle.

A profile hook records each Python function that runs while ``cli.main``
executes every preset and every experiment's default configuration, shrunk
to a few trials.  Each ``def`` in the package, found by ``ast``, must either
have run or be listed in ``ORACLES`` with the reason it stays, mostly a
per-trial validating route that no driver calls but that the tests build
independent checks on.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import gaplab
from gaplab import cli

SRC = Path(gaplab.__file__).resolve().parent

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="needs co_qualname (Python 3.11)")

# (module file, qualified name): why it stays although no CLI run reaches it.
ORACLES = (
    ("conditional.py", "conditional_measure",
     "the paper's conditional measure; the per-trial oracles of theorem1-4 use it"),
    ("conditional.py", "_check_basis",
     "validates the explicit basis of conditional_measure"),
    ("conditional.py", "_check_orthonormal_rows",
     "the Gram check of the oracle routes' bases; the engine's weight check is stricter"),
    ("conditional.py", "_branch_vectors",
     "partial inner products behind conditional_measure"),
    ("conditional.py", "_measure_from_branches",
     "atoms and weights of conditional_measure and random_basis_measure"),
    ("conditional.py", "random_basis_measure",
     "the per-trial Haar-basis route the batched theorem2-4 engine reproduces"),
    ("conditional.py", "raw_conditional_measure",
     "equal-weight measure whose adjust-and-project is conditional_measure"),
    ("conditional.py", "adjust", "the paper's adjust step, checked atom by atom"),
    ("conditional.py", "project_to_sphere", "the paper's projection step"),
    ("conditional.py", "integrate", "per-trial statistic of the oracle routes"),
    ("conditional.py", "DiscreteMeasure.__post_init__",
     "validates every measure the oracle routes build"),
    ("conditional.py", "DiscreteMeasure.n_atoms", "atom count of a DiscreteMeasure"),
    ("conditional.py", "DiscreteMeasure.total_mass", "mass of a DiscreteMeasure"),
    ("gap.py", "sample_gaussian", "G(rho) sampler behind the rejection oracle for GA(rho)"),
    ("gap.py", "gaussian_density", "Lebesgue density of G(rho), checked against sampling"),
    ("randomness.py", "random_onb", "full Haar basis of the O(d2^3) oracle route"),
    ("typicality.py", "uniform_subspace_state",
     "per-trial subspace state the batched theorem3-4 engine reproduces"),
    ("hilbert.py", "DensityMatrix.__repr__", "debugging aid"),
    ("hilbert.py", "BipartiteState.dim",
     "d1 * d2 of a state, in the public state API the tests check; no driver needs it"),
)


def _defined():
    """(module file, qualified name) of every def in the package; a def
    inside a function gets the ``<locals>`` part of ``co_qualname``."""
    found = set()

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((module, prefix + child.name))
                visit(module, child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(module, child, prefix + child.name + ".")
            else:
                visit(module, child, prefix)

    for path in SRC.glob("*.py"):
        visit(path.name, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _configs():
    """Every preset and every experiment's default configuration, at three
    trials and 500 samples."""
    small = {"n_trials": 3, "n_samples": 500}
    for name in sorted(cli.PRESETS):
        yield name, cli.preset_config(name, small).to_dict()
    for name in cli.EXPERIMENTS:
        yield name, {"experiment": name, **small}


def test_every_function_runs_or_is_an_oracle(tmp_path):
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = Path(code.co_filename)
            if path.parent == SRC:
                ran.add((path.name, code.co_qualname))

    sys.setprofile(hook)
    try:
        for name, raw in _configs():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(raw), encoding="utf-8")
            assert cli.main(["run", "--config", str(config),
                             "--out", str(tmp_path / name)]) == 0, name
    finally:
        sys.setprofile(None)

    oracles = {(module, qualname) for module, qualname, _ in ORACLES}
    defined = _defined()
    assert oracles <= defined, f"ORACLES names missing defs: {sorted(oracles - defined)}"
    assert not oracles & ran, f"oracles a CLI run reaches: {sorted(oracles & ran)}"
    unreached = sorted(defined - ran - oracles)
    assert not unreached, f"defs no CLI run reaches and no oracle lists: {unreached}"
