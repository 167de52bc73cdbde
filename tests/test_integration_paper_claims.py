"""End-to-end integration tests: each asserts a headline paper claim
using multiple subsystems together (runtime + symbolic verification)."""

from repro.commerce.models import (
    FIGURE1_INPUTS,
    FIGURE2_INPUTS,
    build_friendly,
    build_short,
    default_database,
)
from repro.verify import Goal, check_goal_reachability, check_log_validity
from repro.verify.containment import check_pointwise_log_equality


class TestPaperStory:
    """The §2.1 narrative, end to end."""

    def test_figure1_log_validates_and_witnesses_replay(self):
        short = build_short()
        db = default_database()
        run = short.run(db, FIGURE1_INPUTS)
        result = check_log_validity(short, db, run.logs)
        assert result.valid
        assert list(short.run(db, result.witness_inputs).logs) == list(run.logs)

    def test_friendly_customization_story(self):
        """friendly = customer-friendly short; same valid logs; passes
        the syntactic audit; figure-2 logs cross-validate."""
        from repro.commerce import is_syntactically_safe_customization

        short, friendly = build_short(), build_friendly()
        db = default_database()
        assert is_syntactically_safe_customization(short, friendly).safe
        assert check_pointwise_log_equality(short, friendly, db).contained
        # The figure-2 log of friendly restricted to short's world is a
        # valid short log too (the containment's concrete meaning).
        run = friendly.run(db, FIGURE2_INPUTS)
        assert check_log_validity(short, db, run.logs).valid

    def test_symbolic_and_operational_reachability_agree(self):
        """For every product: the BSR reachability verdict equals a
        bounded operational search by the progress advisor."""
        from repro.commerce import ProgressAdvisor

        short = build_short()
        db = default_database()
        advisor = ProgressAdvisor(short, db)
        for product in ("time", "newsweek", "le_monde", "vogue"):
            symbolic = check_goal_reachability(
                short, db, Goal.atoms(deliver=(product,))
            ).reachable
            operational = (
                advisor.advise({"deliver": {(product,)}}, max_depth=2)
                is not None
            )
            assert symbolic == operational, product

    def test_minimized_log_still_validates_sessions(self):
        """Drop `deliver` from the log (E15 says it is redundant): real
        session logs under the smaller log still validate."""
        from repro.commerce import CatalogGenerator, random_log

        short = build_short()
        reduced = short.with_log(("sendbill", "pay"))
        catalog = CatalogGenerator(seed=13).generate(3)
        _run, logs = random_log(reduced, catalog, 5, seed=8)
        assert check_log_validity(reduced, catalog.as_database(), logs).valid

    def test_guarded_store_rejects_exactly_noncompliant_sessions(self):
        """Theorem 4.1 in the large: enforcement, operational checking,
        and symbolic Tsdi satisfaction agree across a workload."""
        from repro.commerce import CatalogGenerator, SessionGenerator
        from repro.core.acceptors import is_error_free
        from repro.verify import TsdiConjunct, TsdiSentence, enforce_tsdi, satisfies_tsdi

        short = build_short()
        sentence = TsdiSentence.of(
            TsdiConjunct.parse("pay(X,Y)", "price(X,Y)")
        )
        guarded = enforce_tsdi(short, sentence)
        catalog = CatalogGenerator(seed=2).generate(4)
        db = catalog.as_database()
        generator = SessionGenerator(catalog, seed=9, error_rate=0.3)
        for length in (3, 5, 7):
            inputs = generator.session(length)
            run = guarded.run(db, inputs)
            assert is_error_free(run) == satisfies_tsdi(
                guarded, run, sentence, db
            )
