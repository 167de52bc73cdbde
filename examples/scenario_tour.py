"""Tour of the scenario registry: list -> run -> audit -> go remote.

The registry (`repro.scenarios`) bundles each workload -- transducer,
database, seeded traffic generator, and the PropertySpecs that audit
it -- behind one name, and `run_scenario` drives any of them through
any service surface: an in-process `PodService`, or a `PodClient`
talking HTTP to `python -m repro.server --scenario NAME --workers N`.

Run with:  python examples/scenario_tour.py
"""

from repro.scenarios import get_scenario, list_scenarios, run_scenario


def main() -> None:
    # -- 1. What's registered? ---------------------------------------
    print("registered scenarios:")
    for scenario in list_scenarios():
        print(f"  {scenario.name:<16} {scenario.description}")

    # -- 2. Run one: open-loop feed traffic, audited live ------------
    # Sessions arrive on a Poisson process, topics are Zipf-skewed,
    # session lengths are heavy-tailed -- and every step is checked by
    # the scenario's own OnlineAuditor specs ("feed only to
    # subscribers", "nosub only before subscription").
    report = run_scenario("feed-delivery", sessions=24, steps=6, seed=7)
    print(
        f"\nfeed-delivery: {report.total_steps} steps across "
        f"{report.sessions} sessions, {report.audit_checks} audit checks, "
        f"{report.audit_violations} violations"
    )
    assert report.audit_violations == 0

    # -- 3. Determinism: the digest is the equality token ------------
    # Same seed, same traffic, same logs -- byte-identical, and the
    # report's log digest proves it without shipping the logs around.
    again = run_scenario("feed-delivery", sessions=24, steps=6, seed=7)
    assert again.log_digest == report.log_digest
    print(f"rerun digest matches: {report.log_digest[:16]}…")

    # -- 4. The adversarial scenario *wants* to be caught ------------
    # It serves the deliberately buggy store under violating traffic;
    # the auditor records a finding (with a replayable trace) on most
    # steps.  That is the audit-under-attack measurement of BENCH_e23.
    attack = run_scenario("adversarial", sessions=12, steps=6, seed=7)
    assert get_scenario("adversarial").expects_violations
    assert attack.audit_violations > 0
    print(
        f"adversarial: {attack.audit_violations} of {attack.audit_checks} "
        "audited steps violated 'no delivery before payment' (by design)"
    )

    # -- 5. The same driver goes over the wire -----------------------
    # run_scenario(service=PodClient(...)) sends the identical traffic
    # to a process-level pod server; the digest matches the in-process
    # run.  (Start one with: python -m repro.server --scenario auction)
    print("\nremote: run_scenario(service=PodClient(url, ...)) -- same digest.")


if __name__ == "__main__":
    main()
