"""Property: the heap allocation engine equals the reference.

For *any* demand round — arbitrary app/job/task shapes, candidate sets,
quotas, held counts, locality histories, fill configurations and executor
capacities — ``two_level_allocate_incremental`` must produce plans whose
signatures (grants, task assignments, releases) are identical to the
reference ``two_level_allocate``.  The match is exact by construction: both
engines walk the same (locality-key, grant-step) sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import two_level_allocate, two_level_allocate_incremental
from repro.core.demand import AppDemand, JobDemand, TaskDemand


@st.composite
def demand_rounds(draw):
    """One complete allocation-round input."""
    n_execs = draw(st.integers(min_value=0, max_value=10))
    idle = [f"E{i}" for i in range(n_execs)]
    n_apps = draw(st.integers(min_value=0, max_value=5))
    apps = []
    for a in range(n_apps):
        n_jobs = draw(st.integers(min_value=0, max_value=3))
        jobs = []
        for j in range(n_jobs):
            n_tasks = draw(st.integers(min_value=1, max_value=4))
            tasks = []
            for t in range(n_tasks):
                cands = draw(
                    st.lists(st.sampled_from(idle), max_size=4, unique=True)
                    if idle
                    else st.just([])
                )
                tasks.append(TaskDemand.of(f"A{a}-J{j}-t{t}", cands))
            jobs.append(JobDemand(f"A{a}-J{j}", tuple(tasks)))
        quota = draw(st.integers(min_value=0, max_value=6))
        decided_jobs = draw(st.integers(min_value=0, max_value=8))
        decided_tasks = draw(st.integers(min_value=decided_jobs, max_value=20))
        apps.append(
            AppDemand(
                app_id=f"A{a}",
                jobs=tuple(jobs),
                quota=quota,
                held=draw(st.integers(min_value=0, max_value=quota)),
                local_jobs=draw(st.integers(min_value=0, max_value=decided_jobs)),
                decided_jobs=decided_jobs,
                local_tasks=draw(st.integers(min_value=0, max_value=decided_tasks)),
                decided_tasks=decided_tasks,
            )
        )
    fill = draw(st.booleans())
    fill_limits = None
    if draw(st.booleans()):
        fill_limits = {
            a.app_id: draw(st.integers(min_value=0, max_value=4)) for a in apps
        }
    capacity = draw(st.integers(min_value=1, max_value=3))
    return apps, idle, fill, fill_limits, capacity


@given(demand_rounds())
@settings(max_examples=300, deadline=None)
def test_engines_produce_identical_plans(round_input):
    apps, idle, fill, fill_limits, capacity = round_input
    ref = two_level_allocate(
        apps, list(idle), fill=fill, fill_limits=fill_limits,
        executor_capacity=capacity,
    )
    inc = two_level_allocate_incremental(
        apps, list(idle), fill=fill, fill_limits=fill_limits,
        executor_capacity=capacity,
    )
    assert ref.signature() == inc.signature()
