"""Tests of the benchmark's own arithmetic and patching.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

from run import END_TO_END_UNITS, layer_metrics, per_layer_units, self_time_gap, tail
from spans import Span, Tracer, patched, self_times
from speed import REFERENCE_S, WINDOW_S, Speedometer

BENCH = Path(__file__).resolve().parent


class FakeClock:
    """A clock that reads the next value from a list."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def _span(name, start, end, parent=None, op=0):
    span = Span(name, parent, op)
    span.start, span.end = start, end
    return span


# -- tail percentile ----------------------------------------------------------


def test_tail_leaves_exactly_ten_ops_above():
    times = [float(t) for t in range(1, 101)]
    value, percentile, beyond = tail(times)
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert sum(t > value for t in times) == 10


def test_tail_is_the_eleventh_largest_in_any_order():
    times = [5.0, 1.0, 3.0] * 7  # 21 ops: seven of each value
    value, percentile, beyond = tail(times)
    assert value == 3.0  # ranks 1-7 are the fives, rank 11 is a three
    assert percentile == pytest.approx(100 * 11 / 21)
    assert beyond == 10


def test_tail_with_eleven_ops_is_the_smallest():
    assert tail([float(t) for t in range(11, 0, -1)]) == (1.0, 100 * 1 / 11, 10)


def test_tail_falls_back_to_the_maximum_for_ten_ops_or_fewer():
    assert tail([2.0, 9.0, 4.0]) == (9.0, 100.0, 0)
    assert tail([float(t) for t in range(10)]) == (9.0, 100.0, 0)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 7.0, parent=0),
        _span("b", 2.0, 5.0, parent=1),
        _span("c", 8.0, 9.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0 - 1.5, 6.0 - 3.0, 3.0, 1.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert self_time_gap(spans) == pytest.approx(0.0)


def test_self_time_gap_catches_a_child_outside_its_op():
    spans = [_span("op", 0.0, 1.0, op=0), _span("op", 2.0, 3.0, op=1), _span("a", 2.5, 2.7, parent=1, op=0)]
    assert self_time_gap(spans) == pytest.approx(0.2)


def test_layer_metrics_per_pass():
    spans = [
        _span("op", 0.0, 0.010),
        _span("solvers.solve_nash_phi", 0.001, 0.009, parent=0),
        _span("solvers.homotopy_trace", 0.002, 0.004, parent=1),
        _span("op", 0.010, 0.020, op=1),
        _span("solvers.solve_nash_phi", 0.011, 0.019, parent=3, op=1),
    ]
    spans[1].info = {"enumeration_examined": 40, "enumeration_truncated": False}
    spans[4].info = {"enumeration_examined": 60, "enumeration_truncated": True}
    spans[2].error = "HomotopyBreakdown"
    m = layer_metrics(spans, passes=2, op_seconds=0.020, cost_per_span=0.0)
    assert set(m) == set(per_layer_units())
    assert m["solvers.solve_nash_phi.calls"]["value"] == 1.0
    assert m["solvers.solve_nash_phi.total_ms"]["value"] == pytest.approx(8.0)
    assert m["solvers.solve_nash_phi.self_ms"]["value"] == pytest.approx(7.0)
    assert m["solvers.solve_nash_phi.supports_examined"]["value"] == 50.0
    assert m["solvers.solve_nash_phi.us_per_support"]["value"] == pytest.approx(14e3 / 100)
    assert m["solvers.solve_nash_phi.truncated"]["value"] == 0.5
    assert m["solvers.homotopy_trace.failures"]["value"] == 0.5
    assert m["op.self_ms"]["value"] == pytest.approx(2.0)
    assert m["trace.overhead_ratio"]["value"] == 1.0


def test_layer_metrics_scale_each_op_by_its_slowdown():
    spans = [
        _span("op", 0.0, 0.010),
        _span("games.compose", 0.002, 0.006, parent=0),
        _span("op", 0.010, 0.020, op=1),
        _span("games.compose", 0.012, 0.016, parent=2, op=1),
    ]
    m = layer_metrics(spans, passes=1, op_seconds=0.020, cost_per_span=0.0, slowdowns=[2.0, 4.0])
    assert m["games.compose.total_ms"]["value"] == pytest.approx(4.0 / 2 + 4.0 / 4)
    assert m["op.self_ms"]["value"] == pytest.approx(6.0 / 2 + 6.0 / 4)
    assert m["op.total_ms"]["value"] == pytest.approx(10.0 / 2 + 10.0 / 4)


# -- speed scaling ---------------------------------------------------------------


def _speedometer(times, samples):
    speed = Speedometer()
    speed.times, speed.samples = list(times), list(samples)
    return speed


def test_slowdown_is_the_median_sample_within_the_window_over_the_reference():
    r = REFERENCE_S
    speed = _speedometer([0.0, 1.0, 1.1, 1.2, 1.3, 5.0], [9 * r, 2 * r, 3 * r, 7 * r, 100 * r, 9 * r])
    assert speed.slowdown(1.1, 1.1 + WINDOW_S / 2) == pytest.approx(5.0)  # 2, 3, 7, 100
    assert speed.slowdown(0.75, 0.85) == pytest.approx(2.0)  # only the sample at 1.0 is near


def test_slowdown_falls_back_to_the_nearest_sample():
    r = REFERENCE_S
    speed = _speedometer([0.0, 10.0], [2 * r, 3 * r])
    assert speed.slowdown(3.0, 4.0) == pytest.approx(2.0)
    assert speed.slowdown(6.0, 7.0) == pytest.approx(3.0)
    assert speed.slowdown(20.0, 21.0) == pytest.approx(3.0)
    assert speed.slowdown(-5.0, -4.0) == pytest.approx(2.0)


def test_clock_leaves_out_the_time_spent_sampling():
    speed = Speedometer()
    c0, w0 = speed.clock(), time.perf_counter()
    for _ in range(5):
        speed.sample()
    c1, w1 = speed.clock(), time.perf_counter()
    assert len(speed.samples) == 5 and speed.spent == pytest.approx(sum(speed.samples))
    assert (c1 - c0) == pytest.approx((w1 - w0) - speed.spent, abs=1e-4)
    assert speed.times == sorted(speed.times)


def test_a_sample_started_inside_a_sample_is_dropped():
    speed = Speedometer()
    speed._sampling = True
    speed.sample()
    assert speed.samples == [] and speed.spent == 0.0


def test_running_samples_inside_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = Speedometer()
    with speed.running():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 4  # one on entry, one on exit, at least two from the timer
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- tracer and patching ---------------------------------------------------------


def test_tracer_records_nesting_op_ids_and_failures():
    tracer = Tracer(clock=FakeClock([float(t) for t in range(9)]))

    def boom():
        raise ValueError("no")

    inner = tracer.wrap("inner", boom)
    outer = tracer.wrap("outer", lambda: inner(), extract=lambda r: {"seen": r})
    outer_ok = tracer.wrap("ok", lambda: 7, extract=lambda r: {"seen": r})
    with tracer.op(3):
        with pytest.raises(ValueError):
            outer()
        assert outer_ok() == 7
    names = [(s.name, s.parent, s.op, s.error) for s in tracer.spans]
    assert names == [("op", None, 3, None), ("outer", 0, 3, "ValueError"), ("inner", 1, 3, "ValueError"), ("ok", 0, 3, None)]
    assert tracer.spans[3].info == {"seen": 7}
    assert [(s.start, s.end) for s in tracer.spans] == [(1.0, 8.0), (2.0, 5.0), (3.0, 4.0), (6.0, 7.0)]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 1.0]


def test_tracer_passes_calls_through_outside_an_op():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert tracer.spans == []


def test_tracer_closes_the_op_when_it_raises():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.op(0):
            raise KeyError("x")
    assert tracer.spans[0].error == "KeyError"
    with tracer.op(1):
        pass
    assert tracer.spans[1].parent is None and tracer.spans[1].op == 1


def test_tracer_writes_one_line_per_span(tmp_path):
    tracer = Tracer()
    f = tracer.wrap("f", lambda: None)
    with tracer.op(0):
        f()
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path), {"workload": "w"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"workload": "w"}
    assert [(d["id"], d["name"], d["parent"], d["op"]) for d in lines[1:]] == [(0, "op", None, 0), (1, "f", 0, 0)]
    assert all(d["start"] <= d["end"] for d in lines[1:])


@pytest.fixture
def fake_package():
    def target():
        return "original"

    modules = {name: types.ModuleType(name) for name in ("fakepkg", "fakepkg.a", "fakepkg.b", "fakepkg_other")}
    for module in modules.values():
        module.target = target
        module.nothing = None
    sys.modules.update(modules)
    yield modules, target
    for name in modules:
        del sys.modules[name]


def test_patched_replaces_every_binding_in_the_package_and_restores(fake_package):
    modules, target = fake_package
    replacement = lambda: "patched"  # noqa: E731
    with patched("fakepkg", {target: replacement}):
        assert [modules[n].target() for n in ("fakepkg", "fakepkg.a", "fakepkg.b")] == ["patched"] * 3
        assert modules["fakepkg_other"].target is target  # outside the package
        assert modules["fakepkg.a"].nothing is None
    assert all(m.target is target for m in modules.values())


def test_patched_restores_after_an_exception(fake_package):
    modules, target = fake_package
    with pytest.raises(RuntimeError):
        with patched("fakepkg", {target: lambda: "patched"}):
            raise RuntimeError
    assert all(m.target is target for m in modules.values())


def test_patched_reaches_every_sre_lab_binding():
    import sre_lab
    from sre_lab import cli, solvers, testgames

    original = solvers.solve_lqre
    tracer = Tracer()
    traced = tracer.wrap("solvers.solve_lqre", original)
    with patched("sre_lab", {original: traced}):
        assert solvers.solve_lqre is traced
        assert testgames.solve_lqre is traced
        assert cli.solve_lqre is traced
        assert sre_lab.solve_lqre is traced
    assert solvers.solve_lqre is original and testgames.solve_lqre is original and cli.solve_lqre is original


# -- the declared metrics match the reported ones -----------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
