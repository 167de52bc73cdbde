"""Tour of shadow deploys: mirror -> diff -> replay -> persist.

`repro.shadow.ShadowService` wraps an incumbent pod service and a
candidate behind the exact pod-service surface: every request is
answered by the incumbent and mirrored to the candidate, and the two
runs are diffed per step -- outputs plus the paper's log projection --
under a `ComparisonPolicy`.  Divergences become replayable
`DivergenceReport`s, and both shadow reports and audit findings can be
written through any `SessionStore` as a ledger that survives restarts.

Run with:  python examples/shadow_tour.py
"""

import tempfile
from pathlib import Path

from repro.commerce.models import (
    build_buggy_store,
    build_short,
    default_database,
)
from repro.pods.api import StepRequest
from repro.pods.service import PodService
from repro.scenarios import run_scenario
from repro.shadow import ComparisonPolicy, ShadowService
from repro.verify.api import LogValidity, OnlineAuditor


def main() -> None:
    # -- 1. Shadow the paper's SHORT store with its buggy variant ----
    # Same schema, one dropped rule: the buggy store delivers without
    # checking payment.  The shadow wrapper IS a pod service -- the
    # incumbent answers, the candidate runs the same requests beside it.
    db = default_database()
    shadow = ShadowService(
        PodService(build_short(), db), PodService(build_buggy_store(), db)
    )
    customer = shadow.create_session("customer-1")
    shadow.submit(StepRequest(customer, {"order": {("time",)}}))
    shadow.submit(StepRequest(customer, {"order": {("newsweek",)}}))

    report = shadow.first_divergence()
    assert report is not None and report.step == 2
    print(
        f"caught a {report.kind} at step {report.step}: "
        f"candidate delivered {sorted(report.candidate['deliver'])} unpaid"
    )

    # -- 2. The divergence replays, deterministically ----------------
    # The report carries a CounterexampleTrace: the recorded inputs
    # reproduce the incumbent's log on the incumbent's transducer and
    # fail on the candidate's.  That asymmetry is the machine-checkable
    # statement "these two are not log-equivalent".
    assert report.trace.reproduces(build_short())
    assert not report.trace.reproduces(build_buggy_store())
    print("trace replays on SHORT, fails on the buggy store")

    # -- 3. Policies: containment admits a quieter candidate ---------
    # With the roles reversed (buggy incumbent, SHORT candidate) the
    # candidate logs strictly LESS.  Strict equivalence flags that;
    # log *containment* (Theorem 3.4's relation) accepts it.
    quiet = ShadowService(
        PodService(build_buggy_store(), db),
        PodService(build_short(), db),
        policy=ComparisonPolicy.containment(),
    )
    session = quiet.create_session("customer-2")
    quiet.submit(StepRequest(session, {"order": {("time",)}}))
    quiet.submit(StepRequest(session, {"order": {("newsweek",)}}))
    assert quiet.divergence_count() == 0
    print("containment policy: quieter candidate admitted, 0 divergences")

    # -- 4. Findings persist: the audit ledger -----------------------
    # Hand an OnlineAuditor any SessionStore path and every finding is
    # written through as a violations ledger; a fresh auditor over the
    # same ledger rehydrates them after a restart.
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = Path(tmp) / "violations.sqlite"
        auditor = OnlineAuditor(
            [LogValidity(name="log validates against SHORT")],
            reference=build_short(),
            ledger=ledger_path,
        )
        service = PodService(build_buggy_store(), db, auditor=auditor)
        handle = service.create_session("audited-1")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.submit(StepRequest(handle, {"order": {("newsweek",)}}))
        findings = auditor.findings()
        auditor.ledger.close()

        rehydrated = OnlineAuditor(
            [LogValidity(name="log validates against SHORT")],
            reference=build_short(),
            ledger=ledger_path,
        )
        assert rehydrated.findings() == findings
        print(
            f"ledger: {len(findings)} finding(s) survived a restart "
            "byte-identically"
        )

    # -- 5. Shadow a whole scenario's open-loop traffic --------------
    # run_scenario(shadow_candidate=...) wraps the built service; the
    # adversarial scenario's buggy store diverges from commerce traffic
    # almost immediately.  (From a shell, the same gate is
    # `python -m repro.scenarios --run commerce --shadow adversarial`,
    # exiting non-zero on any divergence.)
    run = run_scenario(
        "commerce", sessions=8, steps=4, shadow_candidate="adversarial"
    )
    assert run.divergences >= 1
    print(
        f"scenario shadow: {run.divergences} divergence(s), first at "
        f"step {run.first_divergence_step}"
    )

    clean = run_scenario(
        "commerce", sessions=8, steps=4, shadow_candidate="commerce"
    )
    assert clean.divergences == 0
    assert clean.shadow_log_digest == clean.log_digest
    print("identical candidate: 0 divergences, byte-identical digests")


if __name__ == "__main__":
    main()
