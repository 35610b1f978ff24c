"""Self-time arithmetic, and that untraced runs call the unwrapped functions."""

import sys

import pytest

import chainflux  # noqa: F401  (loads every chainflux module)
import one_pass
import tracing
from tracing import LAYER_FUNCTIONS, SWEEP_FUNCTIONS, Span, Tracer, layer_totals, self_times
from workloads import build_requests


def _bindings():
    """Every (module, attribute) -> object that points at a traced function."""
    originals = set()
    for modname, attr, _ in LAYER_FUNCTIONS + SWEEP_FUNCTIONS:
        originals.add(id(getattr(sys.modules[modname], attr)))
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name.startswith("chainflux") or name == "numpy.linalg"):
            continue
        for key, value in vars(module).items():
            if id(value) in originals:
                out[(name, key)] = value
    return out


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 9]; the first child has a grandchild [2, 3].
    spans = [
        Span(0, "root", 0.0, 10.0, -1, -1),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "leaf", 2.0, 3.0, 1, 0),
        Span(3, "b", 3.0, 6.0, 0, 0),
        Span(4, "a", 8.0, 9.0, 0, 1),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 6.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0})
    totals = layer_totals(spans)
    assert totals["a"] == pytest.approx((2, 3.0, 4.0))
    assert totals["root"] == pytest.approx((1, 4.0, 10.0))


def test_child_outside_parent_interval_is_clipped():
    spans = [Span(0, "p", 0.0, 2.0, -1, -1), Span(1, "c", 1.5, 3.0, 0, -1)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_nesting_rows_and_restores():
    before = _bindings()
    ticks = iter(range(10_000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    _, request = build_requests("chain5_t1", 0)[0]
    from dataclasses import replace

    from chainflux.model import dimer
    request = replace(request, base=dimer(1.5, 1.5, 1.0, 1.0, 0.0), grid=(0.5, 2.0))
    with tracer:
        tracer.install(LAYER_FUNCTIONS + SWEEP_FUNCTIONS)
        assert _bindings().keys() == before.keys()
        assert all(v is not before[k] for k, v in _bindings().items())
        from chainflux import sweep
        sweep.run_sweep(request)
    assert _bindings() == before
    by_id = {s.sid: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    rows = [s for s in tracer.spans if s.name == tracing.ROW_SPAN]
    assert sorted(s.row for s in rows) == [0, 1, 2, 3]
    for s in tracer.spans:
        if s.parent >= 0:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            if s.name != tracing.ROW_SPAN:
                assert s.row == parent.row
    assert tracer.counters["lindblad.jumps"] > 0
    assert tracer.counters["steady.unknowns"] == 4 * 16


def test_untraced_pass_calls_unwrapped_functions(tmp_path, monkeypatch):
    before = _bindings()
    monkeypatch.setattr(one_pass, "OUT_DIR", tmp_path)
    seen = []

    def spy():
        # called right before the first run_sweep call of the pass
        seen.append(_bindings() == before)

    requests = build_requests("dimer_figures", 0)[:1]
    seconds, results = one_pass._run_requests("dimer_figures", requests, 1, spy)
    assert seen == [True]
    assert results[0][2] is not None and seconds > 0
    assert not any(hasattr(v, "__perfbench_original__") for v in _bindings().values())
