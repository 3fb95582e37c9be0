"""The solvers against families whose optimum is known at any size
(`oracles.KNOWN_OPTIMA`), far past the exact oracle's reach."""

import math

import pytest

from semidom.approx import approx_semitotal
from semidom.domination import DominationKind, exact_min, verify
from semidom.generators import gen_named
from semidom.interval_solver import solve_interval
from semidom.intervals import IntervalModel

from oracles import KNOWN_OPTIMA

SEMI = DominationKind.SEMITOTAL

# the exact oracle checks each closed form over these source path lengths
EXACT_RANGES = {"path": range(3, 31), "gp4": range(2, 13),
                "bipartite": range(2, 13), "apx": range(2, 13)}


@pytest.mark.parametrize("family", sorted(KNOWN_OPTIMA))
def test_closed_form_is_the_exact_optimum(family):
    least, graph, optimum = KNOWN_OPTIMA[family]
    assert EXACT_RANGES[family].start == least
    for n in EXACT_RANGES[family]:
        assert len(exact_min(graph(n), SEMI)) == optimum(n), n


def test_interval_solver_on_the_long_path_model():
    # closed intervals (i, i+1) meet exactly their neighbours: the model of P_n
    n = 10**5
    _, _, optimum = KNOWN_OPTIMA["path"]
    result = solve_interval(IntervalModel(tuple((i, i + 1) for i in range(n))))
    assert len(result) == optimum(n) == 40_000
    # verified on the path itself, with no O(n^2) intersection graph built
    assert verify(gen_named("path", n), result, SEMI).valid


# source path lengths that give graphs of about 3000 vertices
APPROX_SIZES = {"path": 3000, "gp4": 600, "bipartite": 600, "apx": 600}


@pytest.mark.parametrize("family", sorted(KNOWN_OPTIMA))
def test_approximation_ratio_at_scale(family):
    _, graph, optimum = KNOWN_OPTIMA[family]
    n = APPROX_SIZES[family]
    g = graph(n)
    result = approx_semitotal(g)
    assert verify(g, result, SEMI).valid
    assert len(result) <= (2 + 3 * math.log(g.max_degree() + 1)) * optimum(n)
