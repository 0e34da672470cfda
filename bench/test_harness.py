"""Tests of the benchmark's own arithmetic.

    python3 -m pytest bench/test_harness.py
"""
import contextlib
import io
import sys

import pytest

import stats
from run import SRC, kind_times, pass_metrics
from tracing import Tracer, layer_metrics
from workloads import KNOWN_FAILURES, WORKLOADS, Op, check_output, kac_label


def span(i, name, start, end, parent=None, **extra):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": "x", **extra}


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "todasolver.solve", 1.0, 4.0, parent=0),
        span(2, "todasolver.jacobian_apply", 2.0, 3.0, parent=1),
        span(3, "connection.curvature", 5.0, 9.0, parent=0),
        span(4, "chevalley.ChevalleyAlgebra.bracket", 6.0, 8.5, parent=3),
    ]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0 - 2.5)
    assert sum(own.values()) == pytest.approx(10.0)  # self times tile the root


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 5.0, parent=0), span(2, "c", 4.0, 12.0, parent=0)]
    # children cover [1, 10] once clipped to the parent
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_outermost_counts_reentrant_calls_once():
    spans = [span(0, "f", 0.0, 4.0), span(1, "g", 1.0, 3.0, parent=0), span(2, "f", 1.5, 2.5, parent=1),
             span(3, "f", 5.0, 6.0)]
    assert [s["id"] for s in stats.outermost(spans, "f")] == [0, 3]


# ---------------------------------------------------------------------------
# tail percentile and sample count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expect",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (45, 75.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expect):
    samples = list(range(n, 0, -1))  # unsorted input
    tail = stats.tail_percentile(samples)
    if expect is None:
        assert tail is None
        return
    p, value = tail
    assert p == expect
    assert sum(1 for s in samples if s > value) >= stats.TAIL_BEYOND


def test_tail_percentile_value_is_nearest_rank():
    assert stats.tail_percentile(list(range(1, 41))) == (75.0, 30.0)


def test_summarize_reports_count_and_median():
    out = stats.summarize([3.0, 1.0, 2.0])
    assert out == {"n": 3, "median": 2.0}


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------


SOLVE = Op("solve:A2:torus:32", "solve", ())
VERIFY = Op("verify:A2:torus:32", "verify", (), source=SOLVE.id)
RESTRICT = Op("restrict:E6", "restrict", (), expect={"label": "F4(1)"})


def test_check_output_reasons():
    assert check_output(SOLVE, 0, '{"converged": true, "residual": 1e-12}') is None
    assert check_output(SOLVE, 1, "") == "exit 1"
    assert check_output(SOLVE, 0, '{"converged": true, "residual": 1e-3}').startswith("residual")
    assert check_output(SOLVE, 0, "not json") == "no JSON result"
    ok_verify = '{"pass": true, "drift": {"residual": 0.0, "curvature_norm": 1e-13}}'
    assert check_output(VERIFY, 0, ok_verify) is None
    assert check_output(VERIFY, 0, '{"pass": true, "drift": {"residual": 2e-12}}').startswith("drift")
    # a verify whose solve wrote no field exits 2 and fails
    assert check_output(VERIFY, 2, "") == "exit 2"
    assert check_output(RESTRICT, 0, '{"label": "F4(1)"}') is None
    assert check_output(RESTRICT, 0, '{"label": "E6(1)"}').startswith("label")


def test_fail_ratio_and_ok_ratio_on_a_synthetic_failing_op():
    reasons = [None, check_output(SOLVE, 1, ""), None, None]
    assert stats.fail_ratio(r is None for r in reasons) == pytest.approx(0.25)
    records = [{"kind": "solve", "wall_s": 1.0, "rss_mb": 10.0, "reason": r} for r in reasons]
    m = pass_metrics(records, wall=4.5)
    assert m["ok_ratio"] == pytest.approx(0.75)
    assert m["wall_s"] == 4.5 and m["peak_rss_mb"] == 10.0
    assert kind_times(records) == {"conn_check_s": 0.0, "lie_s": 0.0, "solve_s": 4.0, "verify_s": 0.0}
    with pytest.raises(ValueError):
        stats.fail_ratio([])


def test_op_lists_are_fixed_and_cover_known_failures():
    ids = {op.id for make in WORKLOADS.values() for op in make(1)}
    assert KNOWN_FAILURES <= ids
    for name, make in WORKLOADS.items():
        a, b = make(1), make(2)
        assert [op.id for op in a] == [op.id for op in b], name
        assert {op.kind for op in a} == {"solve", "verify", "conn", "check", "restrict"}, name
    assert kac_label("E6") == "F4(1)" and kac_label("E8") == "E8(1)"


# ---------------------------------------------------------------------------
# per-layer arithmetic
# ---------------------------------------------------------------------------


def _solve_spans(calls, **solve_extra):
    """A solve span (id 0) whose children follow the letters in calls:
    R = residual, M = jacobian_apply."""
    out = [span(0, "todasolver.solve", 0.0, 100.0, **solve_extra)]
    names = {"R": "todasolver.residual", "M": "todasolver.jacobian_apply"}
    for i, c in enumerate(calls, start=1):
        out.append(span(i, names[c], float(i), i + 0.5, parent=0))
    return out


def test_newton_and_line_search_counts_of_a_returned_solve():
    # two Newton steps: R, CG, R (trial), R (second trial), then R, CG, R, and the final R
    m = layer_metrics(_solve_spans("RMMMRRRMMRR", iterations=2))
    assert m["todasolver.newton_steps"] == 2
    assert m["todasolver.matvec_calls"] == 5
    assert m["todasolver.cg_iters_per_newton_step"] == pytest.approx(2.5)
    assert m["todasolver.residual_calls"] == 6
    assert m["todasolver.line_search_evals"] == 6 - 3


def test_newton_counts_of_a_solve_that_raised():
    m = layer_metrics(_solve_spans("RMMMM", error="RuntimeError"))
    assert m["todasolver.newton_steps"] == 1
    assert m["todasolver.line_search_evals"] == 0


def test_tracer_wraps_public_names_and_restores_them():
    sys.path.insert(0, SRC)
    import affinetoda.cli as cli
    import affinetoda.todasolver as ts

    original = ts.jacobian_apply
    tracer = Tracer()
    tracer.install()
    try:
        assert ts.jacobian_apply is not original
        assert not hasattr(ts._TodaData.exponentials, "__wrapped__")  # private stays as is
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["lie", "restrict", "A2"]) == 0
    finally:
        tracer.uninstall()
    assert ts.jacobian_apply is original
    names = {s["name"] for s in tracer.spans}
    assert {"cli.main", "rootdata.build_root_system", "restriction.restrict"} <= names
    m = layer_metrics(tracer.spans)
    assert m["restriction.restrict_s"] > 0 and m["cli.self_s"] > 0
