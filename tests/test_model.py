import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmdcop import (
    Constraint,
    ContinuousDomain,
    Problem,
    ProblemFormatError,
    QuadraticCost,
    evaluate_edge,
    global_cost,
    parse_problem,
    serialize_problem,
)

from conftest import FIG1_FORCE


def test_evaluate_edge_worked_example_values(fig1):
    # the two edge costs agent x4 reports in the worked example
    assert evaluate_edge(QuadraticCost(1, 0, 3), 2.0, 9.5) == pytest.approx(274.75, abs=1e-12)
    assert evaluate_edge(QuadraticCost(2, 0, -2), -1.0, 9.5) == pytest.approx(-178.5, abs=1e-12)


def test_evaluate_edge_vanishes_at_origin():
    assert evaluate_edge(QuadraticCost(3.7, -2.2, 91.0), 0.0, 0.0) == 0.0


# flush tiny magnitudes to zero, coefficients as well as coordinates: a
# product or partial sum that lands among the subnormals is rounded to an
# absolute grid, where even power-of-two scaling stops being exact
# (a=5e-324, x=1.5, exp=1 gives 4.4e-323 against 6e-323)
def _flushed(bound: float):
    return st.floats(-bound, bound).map(lambda v: 0.0 if abs(v) < 1e-100 else v)


@given(
    a=_flushed(10), b=_flushed(10), c=_flushed(10),
    x=_flushed(100), y=_flushed(100), exp=st.integers(-8, 8),
)
def test_evaluate_edge_scales_exactly_by_powers_of_two(a, b, c, x, y, exp):
    s = 2.0**exp
    cost = QuadraticCost(a, b, c)
    assert evaluate_edge(cost, s * x, s * y) == s * s * evaluate_edge(cost, x, y)


@given(
    a=st.floats(-10, 10), b=st.floats(-10, 10), c=st.floats(-10, 10),
    x=st.floats(-100, 100), y=st.floats(-100, 100),
    s=st.floats(0.01, 100),
)
# terms of 4375 that cancel: the two sides differ by 1.1e-12
@example(a=0.0, b=7.0, c=-6.999999999999998, x=5.0, y=5.0, s=5.0)
def test_evaluate_edge_scales_quadratically(a, b, c, x, y, s):
    cost = QuadraticCost(a, b, c)
    expected = s * s * evaluate_edge(cost, x, y)
    got = evaluate_edge(cost, s * x, s * y)
    # Both sides approximate s*s times the exact cost E, whose terms sum in
    # magnitude to T = |a x x| + |b x y| + |c y y|. With u = 2**-53, each
    # rounding scales a value by (1 + d), |d| <= u. `evaluate_edge` rounds
    # each term at most four times (two products, two sums), so it is within
    # 4u T of E to first order. `expected` rounds s*s and that product once
    # more: within 6u s*s T. `got` also rounds s*x and s*y, which enter each
    # term squared: within 6u s*s T. The sides differ by at most 12u s*s T,
    # and 16u covers the second-order terms. A product that underflows errs
    # by up to 2**-1075 absolute, which the later factors (at most 1e4 each,
    # two of them) and the dozen roundings keep below 2**-1040.
    terms = abs(a * x * x) + abs(b * x * y) + abs(c * y * y)
    bound = 16 * 2.0**-53 * s * s * terms + 2.0**-1040
    assert got == pytest.approx(expected, rel=1e-12, abs=bound)


def test_global_cost_worked_example(fig1):
    p1 = {"x1": -1.0, "x2": 0.0, "x3": 2.0, "x4": 9.5}
    assert global_cost(fig1, p1) == pytest.approx(94.25, abs=1e-12)

    # hand-sum of the four edges: 24.5 + 1 + 19.25 + (-11.76) = 32.99
    p2 = {"x1": 3.5, "x2": 4.9, "x3": 1.0, "x4": 0.0}
    hand = (3.5**2 - 4.9**2) + (3.5**2 + 2 * 3.5 * 1.0) + (2 * 3.5**2 - 0.0) + (1.0 + 0.0)
    assert hand == pytest.approx(32.99, abs=1e-12)
    assert global_cost(fig1, p2) == pytest.approx(hand, abs=1e-12)


def test_global_cost_zero_assignment(fig1):
    zeros = {a: 0.0 for a in fig1.ids}
    assert global_cost(fig1, zeros) == 0.0


def test_global_cost_missing_agent(fig1):
    with pytest.raises(ValueError, match="x3"):
        global_cost(fig1, {"x1": 0.0, "x2": 0.0, "x4": 0.0})


def test_global_cost_permutation_invariant_within_tolerance(fig1):
    assignment = {"x1": -1.0, "x2": 0.0, "x3": 2.0, "x4": 9.5}
    base = global_cost(fig1, assignment)
    shuffled = Problem(domains=dict(fig1.domains), constraints=list(reversed(fig1.constraints)))
    other = global_cost(shuffled, assignment)
    assert abs(base - other) <= 1e-9 * max(1.0, abs(base))


def test_roundtrip_fig1(fig1):
    assert parse_problem(serialize_problem(fig1)) == fig1


@settings(max_examples=50)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 8))
def test_roundtrip_generated(seed, n):
    from swarmdcop import GenSpec, generate

    problem = generate(GenSpec(topology="random_tree", n=n, seed=seed))
    again = parse_problem(serialize_problem(problem))
    assert again == problem
    # coefficients and bounds survive bit-exactly
    for c1, c2 in zip(problem.constraints, again.constraints):
        assert (c1.cost.a, c1.cost.b, c1.cost.c) == (c2.cost.a, c2.cost.b, c2.cost.c)


def test_parse_single_agent_no_constraints():
    problem = parse_problem('{"agents": [{"id": "x1", "domain": [-1, 1]}], "constraints": []}')
    assert problem.ids == ["x1"]
    assert problem.constraints == []


def test_parse_unknown_agent_in_scope():
    doc = {
        "agents": [{"id": "x1", "domain": [-1, 1]}, {"id": "x2", "domain": [-1, 1]}],
        "constraints": [{"scope": ["x1", "x9"], "a": 1, "b": 0, "c": 0}],
    }
    with pytest.raises(ProblemFormatError, match=r"constraints\[0\].scope.*x9"):
        parse_problem(json.dumps(doc))


def test_parse_rejects_non_finite():
    text = '{"agents": [{"id": "x1", "domain": [-1, Infinity]}], "constraints": []}'
    with pytest.raises(ProblemFormatError):
        parse_problem(text)


def test_parse_rejects_disconnected():
    doc = {
        "agents": [{"id": a, "domain": [-1, 1]} for a in ("x1", "x2", "x3", "x4")],
        "constraints": [
            {"scope": ["x1", "x2"], "a": 1, "b": 0, "c": 0},
            {"scope": ["x3", "x4"], "a": 1, "b": 0, "c": 0},
        ],
    }
    with pytest.raises(ProblemFormatError, match="connected"):
        parse_problem(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ProblemFormatError, match="malformed"):
        parse_problem("{nope")


def test_duplicate_pair_rejected():
    with pytest.raises(ProblemFormatError, match="duplicate"):
        Problem(
            domains={"x1": ContinuousDomain(-1, 1), "x2": ContinuousDomain(-1, 1)},
            constraints=[
                Constraint("x1", "x2", QuadraticCost(1, 0, 0)),
                Constraint("x2", "x1", QuadraticCost(0, 0, 1)),
            ],
        )


def test_a_problem_built_directly_names_an_unknown_scope_agent():
    with pytest.raises(ProblemFormatError,
                       match=r"^constraints\[1\]\.scope\[0\]: unknown agent 'x9'$"):
        Problem(
            domains={"x1": ContinuousDomain(-1, 1), "x2": ContinuousDomain(-1, 1)},
            constraints=[
                Constraint("x1", "x2", QuadraticCost(1, 0, 0)),
                Constraint("x9", "x1", QuadraticCost(1, 0, 0)),
            ],
        )


@pytest.mark.parametrize("coeffs, name", [
    ((math.nan, 0.0, 0.0), "a"),
    ((1.0, math.inf, 0.0), "b"),
    ((1.0, 0.0, -math.inf), "c"),
    ((0.0, math.nan, math.inf), "b"),  # the first that fails is named
])
def test_a_non_finite_coefficient_is_named(coeffs, name):
    with pytest.raises(ProblemFormatError, match=f"^{name}: number must be finite$"):
        QuadraticCost(*coeffs)


def test_constraint_between_names_a_missing_pair(fig1):
    assert fig1.constraint_between("x4", "x3") is fig1.constraints[3]
    with pytest.raises(KeyError, match="no constraint between 'x2' and 'x3'"):
        fig1.constraint_between("x2", "x3")


def test_self_loop_rejected():
    with pytest.raises(ProblemFormatError, match="^scope: scope endpoints must differ$"):
        Constraint("x1", "x1", QuadraticCost(1, 0, 0))


def test_invalid_domain_rejected():
    with pytest.raises(ProblemFormatError, match="^domain: lower bound must be < upper bound$"):
        ContinuousDomain(2.0, 2.0)
    with pytest.raises(ProblemFormatError, match=r"^domain\[1\]: number must be finite$"):
        ContinuousDomain(0.0, math.inf)
    with pytest.raises(ProblemFormatError, match=r"^domain\[0\]: number must be finite$"):
        ContinuousDomain(math.nan, 1.0)
    with pytest.raises(ProblemFormatError, match=r"^domain\[0\]: number must be finite$"):
        ContinuousDomain(-math.inf, math.nan)
    # finite bounds whose width overflows to inf
    with pytest.raises(ProblemFormatError, match="^domain: upper - lower must be finite$"):
        ContinuousDomain(-1e308, 1e308)
    assert ContinuousDomain(-8e307, 8e307).width == 1.6e308


def test_value_types_compare_and_hash_by_value():
    cost = QuadraticCost(1.0, -0.5, 0.0)
    pairs = [
        (ContinuousDomain(-1.0, 1.0), ContinuousDomain(-1.0, 1.0), ContinuousDomain(-1.0, 2.0)),
        (cost, QuadraticCost(1.0, -0.5, 0.0), QuadraticCost(1.0, -0.5, 1.0)),
        (Constraint("x1", "x2", cost), Constraint("x1", "x2", QuadraticCost(1.0, -0.5, 0.0)),
         Constraint("x2", "x1", cost)),
    ]
    for value, same, other in pairs:
        assert value == same and value is not same and value != other
        assert hash(value) == hash(same) and len({value, same, other}) == 2


def test_value_types_keep_their_repr():
    assert repr(ContinuousDomain(-1.0, 1.0)) == "ContinuousDomain(lower=-1.0, upper=1.0)"
    assert repr(Constraint("x1", "x2", QuadraticCost(1.0, -0.5, 0))) == (
        "Constraint(i='x1', j='x2', cost=QuadraticCost(a=1.0, b=-0.5, c=0))")


def test_a_parsed_document_survives_a_round_trip():
    from swarmdcop import GenSpec, generate

    # floats throughout, as `serialize_problem` writes them, take parse's fast path
    text = serialize_problem(generate(GenSpec("scale_free", 40, 3, m=3)))
    problem = parse_problem(text)
    assert serialize_problem(problem) == text
    assert parse_problem(serialize_problem(problem)) == problem
    # integers, which take the per-field path, parse to the same values
    doc = json.loads(text)
    for entry in doc["constraints"][::2]:
        entry["a"] = 2
    for entry in doc["agents"][::3]:
        entry["domain"] = [-5, 5]
    mixed = parse_problem(json.dumps(doc))
    assert parse_problem(serialize_problem(mixed)) == mixed
    cost, domain = mixed.constraints[0].cost, mixed.domains[mixed.ids[0]]
    assert (cost.a, type(cost.a), domain.upper, type(domain.upper)) == (2.0, float, 5.0, float)


def test_ordinals_follow_alphabetical_ids():
    ids = [f"x{k}" for k in range(1, 12)]
    domains = {a: ContinuousDomain(-1, 1) for a in ids}
    constraints = [Constraint("x1", a, QuadraticCost(1, 0, 0)) for a in ids[1:]]
    problem = Problem(domains=domains, constraints=constraints)
    assert problem.ids == sorted(ids)  # "x10", "x11" sort before "x2"
    assert [problem.ordinals[a] for a in problem.ids] == list(range(11))


def test_fig1_force_matches_domains(fig1):
    for agent, positions in FIG1_FORCE.items():
        dom = fig1.domains[agent]
        assert all(dom.lower <= v <= dom.upper for v in positions)


def _doc(agents='{"id": "x1", "domain": [-1, 1]}, {"id": "x2", "domain": [-1, 1]}',
         constraints='{"scope": ["x1", "x2"], "a": 1, "b": 0, "c": 0}') -> str:
    return f'{{"agents": [{agents}], "constraints": [{constraints}]}}'


# one case per check of parse_problem and of the types it builds, in the
# order the checks run: each entry's shape, then its values, then the graph
@pytest.mark.parametrize("text, message", [
    pytest.param("[]", "$: expected a JSON object", id="not-an-object"),
    pytest.param('{"constraints": []}', "$: missing key 'agents'", id="agents-missing"),
    pytest.param('{"agents": []}', "$: missing key 'constraints'", id="constraints-missing"),
    pytest.param('{"agents": {}, "constraints": []}', "agents: expected a list",
                 id="agents-not-a-list"),
    pytest.param('{"agents": [], "constraints": 3}', "constraints: expected a list",
                 id="constraints-not-a-list"),
    pytest.param("{nope", "malformed JSON: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)", id="malformed-json"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [NaN, 1]}', constraints=""),
                 "non-finite literal 'NaN' is not allowed", id="nan-literal"),
    pytest.param(_doc(agents="[]", constraints=""), "agents[0]: expected an object",
                 id="agent-not-an-object"),
    pytest.param(_doc(agents='{"domain": [-1, 1]}', constraints=""),
                 "agents[0].id: expected a non-empty string", id="id-missing"),
    pytest.param(_doc(agents='{"id": "", "domain": [-1, 1]}', constraints=""),
                 "agents[0].id: expected a non-empty string", id="id-empty"),
    pytest.param(_doc(agents='{"id": 3, "domain": [-1, 1]}', constraints=""),
                 "agents[0].id: expected a non-empty string", id="id-not-a-string"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1, 1]}, {"id": "x1", "domain": [0, 1]}'),
                 "agents[1].id: duplicate agent id 'x1'", id="id-duplicate"),
    pytest.param(_doc(agents='{"id": "x1"}', constraints=""),
                 "agents[0].domain: expected [lower, upper]", id="domain-missing"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1, 0, 1]}', constraints=""),
                 "agents[0].domain: expected [lower, upper]", id="domain-not-a-pair"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1, "1"]}', constraints=""),
                 "agents[0].domain[1]: expected a number", id="bound-a-string"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [false, 1]}', constraints=""),
                 "agents[0].domain[0]: expected a number", id="bound-a-bool"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1, 1e999]}', constraints=""),
                 "agents[0].domain[1]: number must be finite", id="bound-not-finite"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [1, 1]}', constraints=""),
                 "agents[0].domain: lower bound must be < upper bound", id="bounds-not-ordered"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1e308, 1e308]}', constraints=""),
                 "agents[0].domain: upper - lower must be finite", id="width-not-finite"),
    pytest.param(_doc(constraints="[]"), "constraints[0]: expected an object",
                 id="constraint-not-an-object"),
    pytest.param(_doc(constraints='{"a": 1, "b": 0, "c": 0}'),
                 "constraints[0].scope: expected [i, j]", id="scope-missing"),
    pytest.param(_doc(constraints='{"scope": ["x1"], "a": 1, "b": 0, "c": 0}'),
                 "constraints[0].scope: expected [i, j]", id="scope-not-a-pair"),
    pytest.param(_doc(constraints='{"scope": ["x1", 2], "a": 1, "b": 0, "c": 0}'),
                 "constraints[0].scope[1]: expected an agent id", id="scope-end-not-a-string"),
    pytest.param(_doc(constraints='{"scope": ["x1", "x2"], "b": 0, "c": 0}'),
                 "constraints[0].a: missing coefficient", id="coefficient-missing"),
    pytest.param(_doc(constraints='{"scope": ["x1", "x2"], "a": 1, "b": 0, "c": null}'),
                 "constraints[0].c: expected a number", id="coefficient-not-a-number"),
    pytest.param(_doc(constraints='{"scope": ["x1", "x2"], "a": 1, "b": -1e999, "c": 0}'),
                 "constraints[0].b: number must be finite", id="coefficient-not-finite"),
    pytest.param(_doc(constraints='{"scope": ["x1", "x1"], "a": 1, "b": 0, "c": 0}'),
                 "constraints[0].scope: scope endpoints must differ", id="self-loop"),
    pytest.param('{"agents": [], "constraints": []}', "problem needs at least one agent",
                 id="no-agents"),
    pytest.param(_doc(constraints='{"scope": ["x9", "x2"], "a": 1, "b": 0, "c": 0}'),
                 "constraints[0].scope[0]: unknown agent 'x9'", id="scope-end-unknown"),
    pytest.param(_doc(constraints='{"scope": ["x1", "x2"], "a": 1, "b": 0, "c": 0}, '
                                  '{"scope": ["x2", "x1"], "a": 0, "b": 0, "c": 1}'),
                 "constraints[1]: duplicate constraint between 'x2' and 'x1'",
                 id="duplicate-pair"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1, 1]}, {"id": "x2", "domain": [-1, 1]}, '
                             '{"id": "x3", "domain": [-1, 1]}'),
                 "constraint graph is not connected", id="disconnected"),
    pytest.param(_doc(constraints='{"scope": ["x1", "x9"], "a": 1, "b": 0, "c": 0}, '
                                  '{"scope": ["x1", "x2"], "b": 0, "c": 0}'),
                 "constraints[1].a: missing coefficient", id="entries-before-graph"),
])
def test_parse_reports_each_fault_with_its_path(text, message):
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1, 1%s]}' % ("0" * 400), constraints=""),
                 "agents[0].domain[1]: number must be finite", id="upper-bound"),
    pytest.param(_doc(agents='{"id": "x1", "domain": [-1%s, 1]}' % ("0" * 400), constraints=""),
                 "agents[0].domain[0]: number must be finite", id="lower-bound"),
    pytest.param(_doc(constraints='{"scope": ["x1", "x2"], "a": 1%s, "b": 0, "c": 0}'
                      % ("0" * 400)),
                 "constraints[0].a: number must be finite", id="coefficient"),
])
def test_parse_reports_an_oversized_integer_with_its_path(text, message):
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(text)
    assert str(exc.value) == message
