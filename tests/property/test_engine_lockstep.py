"""Lockstep: the production event engine against the reference oracle.

``tests/reference_engine.py`` keeps the engine and process layer as they
were before heap entries became ``(time, seq, handle)`` tuples and the
dead-event purge became conditional.  Random scripts run through both;
every fired callback, process resume and top-level call logs
``(now, label)``, and both engines must produce the same log, the same
final clock and the same ``stats()``.

The process classes (``Process``, ``Timeout``, ``AllOf``, ``AnyOf``,
``Interrupt``) exist only in the oracle, so both sides run them; the
production side runs them on the production ``Simulation`` and waits on
production signals through :class:`~tests.reference_engine.SignalWait`.
That covers the engine and the signal's wake-up rule under every wait
shape the scripts draw.

A script is a list of top-level operations.  Scheduled callbacks carry an
*action* they perform when they fire (schedule more work at the current
instant, defer or re-defer, cancel, trigger or fail a signal, interrupt a
process asynchronously or immediately, start a process), so the scripts
exercise re-entrant scheduling as well as the queue itself.  Processes run
small programs waiting on ``Timeout``, ``Signal``, ``AllOf``, ``AnyOf`` and
other processes.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.engine as engine
import repro.simulation.process as process
import tests.reference_engine as reference

PRODUCTION = SimpleNamespace(
    Simulation=engine.Simulation,
    Timeout=reference.Timeout,
    Signal=process.Signal,
    wait=reference.SignalWait,
    Process=reference.Process,
    Interrupt=reference.Interrupt,
    AllOf=reference.AllOf,
    AnyOf=reference.AnyOf,
)
REFERENCE = SimpleNamespace(
    Simulation=reference.Simulation,
    Timeout=reference.Timeout,
    Signal=reference.Signal,
    wait=lambda signal: signal,
    Process=reference.Process,
    Interrupt=reference.Interrupt,
    AllOf=reference.AllOf,
    AnyOf=reference.AnyOf,
)


class Script:
    """Interprets one script against one engine, logging what happens."""

    def __init__(self, api: SimpleNamespace):
        self.api = api
        self.sim = api.Simulation()
        self.log: list = []
        self.handles: list = []
        self.signals: list = []
        self.procs: list = []
        self.labels = 0

    # ------------------------------------------------------------ callbacks
    def _label(self, kind: str) -> str:
        self.labels += 1
        return f"{kind}{self.labels}"

    def fire(self, label: str, action) -> None:
        self.log.append((self.sim.now, label))
        self.act(action)

    def act(self, action) -> None:
        """Perform one action (from a callback or the top level)."""
        sim = self.sim
        kind = action[0]
        if kind == "log":
            return
        if kind == "soon":
            self.handles.append(sim.call_soon(self.fire, self._label("soon"), action[1]))
        elif kind == "now":
            self.handles.append(sim.schedule(0.0, self.fire, self._label("now"), action[1]))
        elif kind == "at_now":
            self.handles.append(
                sim.schedule_at(sim.now, self.fire, self._label("at"), action[1])
            )
        elif kind == "later":
            self.handles.append(
                sim.schedule(action[1], self.fire, self._label("later"), action[2])
            )
        elif kind == "defer":
            sim.defer(action[1], self.fire, self._label(f"defer{action[1]}-"), action[2])
        elif kind == "cancel":
            if self.handles:
                handle = self.handles[action[1] % len(self.handles)]
                self.log.append((sim.now, f"cancel:{handle.cancel()}:{handle.pending}"))
        elif kind in ("trigger", "fail"):
            if self.signals:
                signal = self.signals[action[1] % len(self.signals)]
                if not signal.triggered:
                    if kind == "trigger":
                        signal.trigger(action[1])
                    else:
                        signal.fail(ValueError(action[1]))
        elif kind == "interrupt":
            if self.procs:
                proc = self.procs[action[1] % len(self.procs)]
                proc.interrupt(f"int{action[1]}", immediate=action[2])
        elif kind == "spawn":
            self.spawn(action[1])
        else:  # pragma: no cover - strategy and interpreter disagree
            raise AssertionError(kind)

    # ------------------------------------------------------------ processes
    def wait_for(self, spec, pid: int):
        api = self.api
        kind = spec[0]
        if kind == "timeout":
            return api.Timeout(spec[1], value=f"t{spec[1]}")
        if kind == "signal" and self.signals:
            return api.wait(self.signals[spec[1] % len(self.signals)])
        if kind == "proc" and pid > 0:
            return self.procs[spec[1] % pid]  # only earlier processes
        if kind == "allof":
            return api.AllOf([self.wait_for(child, pid) for child in spec[1]])
        if kind == "anyof":
            return api.AnyOf([self.wait_for(child, pid) for child in spec[1]])
        return api.Timeout(0.0)

    def body(self, pid: int, program):
        api = self.api
        for step in program:
            if step[0] == "raise":
                raise ValueError(f"p{pid}")
            try:
                value = yield self.wait_for(step, pid)
                self.log.append((self.sim.now, f"p{pid}:{step[0]}:{value!r}"))
            except api.Interrupt as interrupt:
                self.log.append((self.sim.now, f"p{pid}:interrupted:{interrupt.cause}"))
            except ValueError as error:
                self.log.append((self.sim.now, f"p{pid}:failed:{error}"))
        return pid

    def spawn(self, program) -> None:
        pid = len(self.procs)
        self.procs.append(self.api.Process(self.sim, self.body(pid, program), name=f"p{pid}"))

    # ------------------------------------------------------------- top level
    def apply(self, op) -> None:
        sim = self.sim
        kind = op[0]
        try:
            if kind == "run":
                until = None if op[1] is None else sim.now + op[1]
                self.log.append((sim.run(until=until), "run"))
            elif kind == "step":
                self.log.append((sim.now, f"step:{sim.step()}"))
            elif kind == "peek":
                self.log.append((sim.now, f"peek:{sim.peek()}"))
            elif kind == "schedule_at":
                self.handles.append(
                    sim.schedule_at(sim.now + op[1], self.fire, self._label("abs"), op[2])
                )
            elif kind == "signal":
                self.signals.append(self.api.Signal(sim, name=f"s{len(self.signals)}"))
            elif kind == "cancel_batch":
                # Many far-off events, most cancelled: drives heap compaction.
                batch = [
                    sim.schedule(op[2] + i, self.fire, self._label("bulk"), ("log",))
                    for i in range(op[1])
                ]
                for handle in batch[: op[1] - op[3]]:
                    handle.cancel()
                self.handles.extend(batch)
            else:
                self.act(op)
        except Exception as error:  # both engines must fail the same way
            self.log.append((sim.now, f"error:{type(error).__name__}:{error}"))
        self.log.append((sim.now, f"stats:{sorted(sim.stats().items())}"))


def run_both(ops):
    scripts = [Script(REFERENCE), Script(PRODUCTION)]
    for script in scripts:
        for op in ops:
            script.apply(op)
        script.apply(("run", None))
    ref, prod = scripts
    return ref, prod


def assert_lockstep(ops):
    ref, prod = run_both(ops)
    assert prod.log == ref.log
    assert prod.sim.now == ref.sim.now
    assert prod.sim.stats() == ref.sim.stats()
    return prod


# ----------------------------------------------------------------- strategies
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 4.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
INDEX = st.integers(min_value=0, max_value=30)

LEAF_ACTIONS = st.one_of(
    st.just(("log",)),
    st.tuples(st.just("cancel"), INDEX),
    st.tuples(st.sampled_from(["trigger", "fail"]), INDEX),
    st.tuples(st.just("interrupt"), INDEX, st.booleans()),
)
ACTIONS = st.recursive(
    LEAF_ACTIONS,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["soon", "now", "at_now"]), inner),
        st.tuples(st.just("later"), DELAYS, inner),
        st.tuples(st.just("defer"), st.integers(0, 3), inner),
    ),
    max_leaves=4,
)
WAIT_LEAVES = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("signal"), INDEX),
    st.tuples(st.just("proc"), INDEX),
)
WAITS = st.one_of(
    WAIT_LEAVES,
    st.tuples(st.just("allof"), st.lists(WAIT_LEAVES, max_size=3)),
    st.tuples(st.just("anyof"), st.lists(WAIT_LEAVES, min_size=1, max_size=3)),
)
PROGRAMS = st.lists(WAITS, min_size=1, max_size=5).flatmap(
    lambda waits: st.sampled_from([waits, waits + [("raise",)]])
)
OPS = st.one_of(
    ACTIONS,
    st.tuples(st.just("spawn"), PROGRAMS),
    st.tuples(st.just("interrupt"), INDEX, st.booleans()),
    st.tuples(st.just("schedule_at"), DELAYS, ACTIONS),
    st.just(("signal",)),
    st.tuples(st.just("run"), st.one_of(st.none(), DELAYS)),
    st.sampled_from([("step",), ("peek",)]),
    st.tuples(
        st.just("cancel_batch"),
        st.integers(1, 80),
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(0, 10),
    ),
)


@given(ops=st.lists(OPS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_production_engine_matches_reference(ops):
    assert_lockstep(ops)


def test_lockstep_through_compaction_and_interrupts():
    """A fixed script that compacts the heap, interrupts both ways and waits
    on every waitable kind, so none of those paths depends on the draw."""
    program = [
        ("timeout", 1.0),
        ("allof", [("timeout", 0.5), ("signal", 0), ("timeout", 2.0)]),
        ("anyof", [("signal", 1), ("timeout", 3.0)]),
        ("proc", 0),
    ]
    ops = [
        ("signal",),
        ("signal",),
        ("spawn", [("timeout", 2.0), ("signal", 0)]),
        ("spawn", program),
        ("spawn", program + [("raise",)]),
        ("interrupt", 1, False),  # lands after p1 subscribed its first wait
        ("cancel_batch", 60, 5.0, 3),
        ("later", 1.5, ("trigger", 0)),
        ("later", 1.5, ("defer", 1, ("soon", ("interrupt", 1, True)))),
        ("later", 1.5, ("defer", 1, ("log",))),
        ("run", 1.0),
        ("interrupt", 2, False),
        ("peek",),
        ("step",),
        ("cancel_batch", 40, 20.0, 0),
        ("later", 2.0, ("fail", 1)),
        ("run", None),
    ]
    prod = assert_lockstep(ops)
    stats = prod.sim.stats()
    assert stats["heap_compactions"] >= 1
    assert stats["deferred_flushes"] >= 1
    labels = [label for _, label in prod.log]
    assert any(":interrupted:" in label for label in labels)
    assert any(label.startswith("error:ValueError") for label in labels)
