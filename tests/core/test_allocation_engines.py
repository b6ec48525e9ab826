"""The heap-based allocation engine must replay the reference bit for bit.

``two_level_allocate_incremental`` replaces the reference's per-grant full
rescan with a key heap, relying on three invariants (see its docstring);
these tests pin the equivalence on hand-built corner cases and a seeded
random sweep.  The property suite extends the sweep with hypothesis.
"""

import random

from repro.core.allocation import (
    DataAwareAllocator,
    two_level_allocate,
    two_level_allocate_incremental,
)
from repro.core.demand import AppDemand, JobDemand, TaskDemand


def task(tid, *cands):
    return TaskDemand.of(tid, cands)


def app(app_id, jobs, quota=4, **kw):
    return AppDemand(app_id=app_id, jobs=tuple(jobs), quota=quota, **kw)


def assert_engines_agree(apps, idle, **kw):
    ref = two_level_allocate(apps, list(idle), **kw)
    inc = two_level_allocate_incremental(apps, list(idle), **kw)
    assert ref.signature() == inc.signature()
    return ref


class TestHandCases:
    def test_disjoint_demands(self):
        a1 = app("A1", [JobDemand("J1", (task("t11", "E1"), task("t12", "E2")))], quota=2)
        a2 = app("A2", [JobDemand("J2", (task("t21", "E3"), task("t22", "E4")))], quota=2)
        plan = assert_engines_agree([a1, a2], ["E1", "E2", "E3", "E4"])
        assert sorted(plan.executors_of("A1")) == ["E1", "E2"]

    def test_contested_executors_split_fairly(self):
        def contested(app_id):
            return app(
                app_id,
                [
                    JobDemand(f"{app_id}-J1", (task(f"{app_id}-t1", "E1"),)),
                    JobDemand(f"{app_id}-J2", (task(f"{app_id}-t2", "E2"),)),
                ],
                quota=2,
            )

        assert_engines_agree(
            [contested("A3"), contested("A4")], ["E1", "E2", "E3", "E4"], fill=False
        )

    def test_locality_history_reordering(self):
        rich = app(
            "rich", [JobDemand("rj", (task("rt", "E1"),))], quota=2,
            local_jobs=9, decided_jobs=10, local_tasks=9, decided_tasks=10,
        )
        poor = app(
            "poor", [JobDemand("pj", (task("pt", "E1"),))], quota=2,
            local_jobs=0, decided_jobs=10, decided_tasks=10,
        )
        plan = assert_engines_agree([rich, poor], ["E1"], fill=False)
        assert plan.executors_of("poor") == ["E1"]

    def test_fill_phase_and_limits(self):
        a = app("A", [JobDemand("J", (task("t", "E0"),))], quota=4)
        b = app("B", [], quota=4)
        assert_engines_agree(
            [a, b], [f"E{i}" for i in range(6)],
            fill=True, fill_limits={"A": 2, "B": 1},
        )

    def test_executor_capacity_packs_tasks(self):
        jobs = [
            JobDemand("J", tuple(task(f"t{i}", "E1", "E2") for i in range(6)))
        ]
        assert_engines_agree(
            [app("A", jobs, quota=2)], ["E1", "E2"], executor_capacity=4
        )

    def test_quota_exhaustion_mid_job(self):
        jobs = [
            JobDemand("J1", tuple(task(f"a{i}", f"E{i}") for i in range(3))),
            JobDemand("J2", (task("b0", "E9"),)),
        ]
        assert_engines_agree(
            [app("A", jobs, quota=2, held=1)],
            [f"E{i}" for i in range(3)] + ["E9"],
        )

    def test_empty_inputs(self):
        assert_engines_agree([], ["E1"])
        assert_engines_agree([app("A", [], quota=2)], [])


class TestRandomSweep:
    def test_seeded_random_instances(self):
        """200 random demand rounds: plan signatures must match exactly."""
        rng = random.Random(7)
        for _ in range(200):
            n_apps = rng.randint(1, 6)
            n_execs = rng.randint(0, 14)
            idle = [f"E{i}" for i in range(n_execs)]
            apps = []
            for a in range(n_apps):
                jobs = []
                for j in range(rng.randint(0, 4)):
                    tasks = tuple(
                        task(
                            f"A{a}-J{j}-t{t}",
                            *rng.sample(idle, min(len(idle), rng.randint(0, 3))),
                        )
                        for t in range(rng.randint(1, 5))
                    )
                    jobs.append(JobDemand(f"A{a}-J{j}", tasks))
                decided_jobs = rng.randint(0, 10)
                decided_tasks = rng.randint(decided_jobs, 30)
                quota = rng.randint(1, 6)
                apps.append(
                    AppDemand(
                        app_id=f"A{a}",
                        jobs=tuple(jobs),
                        quota=quota,
                        held=rng.randint(0, min(3, quota)),
                        local_jobs=rng.randint(0, decided_jobs),
                        decided_jobs=decided_jobs,
                        local_tasks=rng.randint(0, decided_tasks),
                        decided_tasks=decided_tasks,
                    )
                )
            fill = rng.random() < 0.7
            fill_limits = (
                {a.app_id: rng.randint(0, 4) for a in apps}
                if rng.random() < 0.5
                else None
            )
            capacity = rng.randint(1, 3)
            assert_engines_agree(
                apps, idle,
                fill=fill, fill_limits=fill_limits, executor_capacity=capacity,
            )


class TestAllocatorFacade:
    def test_facade_plan_equals_two_level_allocate(self):
        a = app("A", [JobDemand("J", (task("t", "E1"),))], quota=2)
        plan = DataAwareAllocator().allocate([a], ["E1", "E2"])
        assert plan.signature() == two_level_allocate([a], ["E1", "E2"]).signature()
