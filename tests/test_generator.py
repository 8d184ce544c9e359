import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmdcop import ContinuousDomain, GenSpec, generate, generator, serialize_problem


def _is_connected_tree(problem):
    n = problem.n_agents
    if len(problem.constraints) != n - 1:
        return False
    seen = set()
    adjacency = problem.adjacency
    stack = [problem.ids[0]]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency[node])
    return len(seen) == n  # n-1 edges + connected == acyclic tree


def test_random_tree_is_a_tree():
    problem = generate(GenSpec(topology="random_tree", n=4, seed=13))
    assert len(problem.constraints) == 3
    assert _is_connected_tree(problem)


def test_complete_graph_edge_count():
    problem = generate(GenSpec(topology="erdos_renyi", n=4, seed=1, p=1.0))
    assert len(problem.constraints) == 6


def test_generation_is_deterministic():
    spec = GenSpec(topology="erdos_renyi", n=10, seed=777, p=0.2)
    assert serialize_problem(generate(spec)) == serialize_problem(generate(spec))


@pytest.mark.parametrize("topology", ["erdos_renyi", "scale_free", "random_tree"])
def test_coefficients_and_domains_respect_spec(topology):
    domain = ContinuousDomain(-50.0, 50.0)
    spec = GenSpec(topology=topology, n=9, seed=5, coeff_range=(-5.0, 5.0), domain=domain)
    problem = generate(spec)
    for con in problem.constraints:
        for coeff in (con.cost.a, con.cost.b, con.cost.c):
            assert -5.0 <= coeff <= 5.0
    for dom in problem.domains.values():
        assert (dom.lower, dom.upper) == (-50.0, 50.0)


def test_scale_free_edge_count():
    # clique core of m nodes plus m edges per added node
    for n, m in ((6, 2), (10, 3), (5, 1)):
        problem = generate(GenSpec(topology="scale_free", n=n, seed=8, m=m))
        assert len(problem.constraints) == m * (n - m) + m * (m - 1) // 2


@pytest.mark.parametrize("coeff_range", [
    (float("nan"), 1.0), (float("-inf"), float("inf")), (0.0, float("inf")),
], ids=["nan", "both-infinite", "upper-infinite"])
def test_a_non_finite_coeff_range_is_rejected(coeff_range):
    with pytest.raises(ValueError, match=r"^coeff_range must be finite, got "):
        GenSpec(topology="erdos_renyi", n=3, seed=0, coeff_range=coeff_range)


@pytest.mark.parametrize("field, value", [
    ("n", 2.5), ("n", True), ("n", "3"), ("m", 1.5), ("m", False), ("seed", 0.5), ("seed", None),
])
def test_integer_fields_must_be_integers(field, value):
    fields = {"n": 4, "m": 2, "seed": 0, field: value}
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GenSpec(topology="scale_free", **fields)


def test_numpy_integer_fields_become_python_ints():
    spec = GenSpec(topology="scale_free", n=np.int64(6), seed=np.uint64(9), m=np.int32(2))
    assert [type(v) for v in (spec.n, spec.m, spec.seed)] == [int, int, int]
    expected = GenSpec(topology="scale_free", n=6, seed=9, m=2)
    assert serialize_problem(generate(spec)) == serialize_problem(generate(expected))


@pytest.mark.parametrize("coeff_range", [("a", 1.0), (0.0, None), (1.0,), 5.0],
                         ids=["str", "none", "one-bound", "number"])
def test_a_non_numeric_coeff_range_is_rejected(coeff_range):
    message = f"coeff_range must be a pair of real numbers, got {coeff_range!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GenSpec(topology="erdos_renyi", n=3, seed=0, coeff_range=coeff_range)


@pytest.mark.parametrize("p", ["a", True, None], ids=["str", "bool", "none"])
def test_a_non_real_p_is_rejected(p):
    message = f"p must be a real number, got {p!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GenSpec(topology="erdos_renyi", n=3, seed=0, p=p)


def test_a_domain_that_is_not_a_continuous_domain_is_rejected():
    message = "domain must be a ContinuousDomain, got (-1.0, 1.0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GenSpec(topology="random_tree", n=3, seed=0, domain=(-1.0, 1.0))


def test_a_reversed_coeff_range_is_rejected():
    with pytest.raises(ValueError, match="^coeff_range lower bound exceeds upper bound$"):
        GenSpec(topology="erdos_renyi", n=3, seed=0, coeff_range=(1.0, -1.0))


def test_erdos_renyi_gives_up_after_its_resamples(monkeypatch):
    monkeypatch.setattr(generator, "_MAX_RESAMPLES", 3)
    spec = GenSpec(topology="erdos_renyi", n=12, seed=0, p=0.01)
    with pytest.raises(RuntimeError, match=r"^no connected graph after 3 resamples \(n=12, p=0.01\)$"):
        generate(spec)


def test_infeasible_specs_rejected():
    with pytest.raises(ValueError):
        GenSpec(topology="scale_free", n=3, seed=0, m=3)
    with pytest.raises(ValueError):
        GenSpec(topology="erdos_renyi", n=3, seed=0, p=0.0)
    with pytest.raises(ValueError):
        GenSpec(topology="erdos_renyi", n=0, seed=0)
    with pytest.raises(ValueError):
        GenSpec(topology="ring", n=3, seed=0)  # type: ignore[arg-type]


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(2, 12),
    topology=st.sampled_from(["erdos_renyi", "scale_free", "random_tree"]),
)
def test_generated_instances_always_connected(seed, n, topology):
    # Problem.__post_init__ traverses the graph and raises if disconnected
    spec = GenSpec(topology=topology, n=n, seed=seed, m=min(2, n - 1))
    problem = generate(spec)
    assert problem.n_agents == n
    assert problem.ids == sorted(f"x{k + 1}" for k in range(n))


def test_single_agent_instance():
    problem = generate(GenSpec(topology="random_tree", n=1, seed=3))
    assert problem.ids == ["x1"]
    assert problem.constraints == []
