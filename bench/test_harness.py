"""Arithmetic of the benchmark harness on fixed inputs."""

import statistics

import pytest

import harness
import layers
from workloads import same_text


def test_tail_is_the_sample_with_ten_above_it():
    value, pct, n = harness.tail(list(range(20, 0, -1)))
    assert (value, pct, n) == (10, 50.0, 20)
    value, pct, n = harness.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = harness.tail([3.0] * 11)
    assert value == 3.0 and pct == pytest.approx(100 / 11) and n == 11


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        harness.tail(range(10))


def test_spread_is_interquartile_distance_over_median():
    # exclusive quartiles of 1..10 are 2.75 and 8.25 around a median of 5.5
    assert harness.spread(range(1, 11)) == pytest.approx(1.0)
    assert harness.spread([2.0, 2.0, 2.0, 2.0]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
    ]
    t = harness.span_totals(spans)
    assert t["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert t["b"] == {"calls": 2, "s": 7.0, "self_s": 6.0}
    assert t["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_merge_sums_spans_and_counters():
    part = {"spans": {"a": {"calls": 2, "s": 1.5, "self_s": 0.5}}, "counters": {"rows": 7}}
    other = {"spans": {"b": {"calls": 1, "s": 1.0, "self_s": 1.0}}, "counters": {"rows": 3}}
    merged = harness.merge_summaries([part, part, other])
    assert merged["spans"]["a"] == {"calls": 4, "s": 3.0, "self_s": 1.0}
    assert merged["spans"]["b"]["calls"] == 1
    assert merged["counters"] == {"rows": 17}


def test_wrapped_calls_nest_and_count():
    tracer = harness.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner, after=lambda t, a, k, out: t.counters.__setitem__("n", out))
    outer = tracer.wrap("outer", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[1]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.counters["n"] == 2
    summary = tracer.summary()["spans"]
    assert summary["outer"]["self_s"] == pytest.approx(summary["outer"]["s"] - summary["inner"]["s"])
    tracer.reset()
    assert tracer.spans == [] and dict(tracer.counters) == {}


def _pass(batch_s, rows, steps, evals):
    return {
        "spans": {"entanglement.batch": {"calls": 4, "s": batch_s, "self_s": batch_s}},
        "counters": {"batch.rows": rows, "descent.steps": steps, "descent.evals": evals,
                     "search.restarts": 8, "search.restarts_at_min": 6},
    }


def test_per_layer_ratios_and_medians():
    passes = [_pass(1.0, 40, 3, 12), _pass(3.0, 40, 3, 12), _pass(2.0, 40, 3, 12)]
    m = layers.per_layer(passes, [0.2, 0.1, 0.3], 0.05)
    assert [name for name, _ in layers.PER_LAYER] == list(m)
    assert m["entanglement.batch.calls"]["value"] == 4
    assert m["entanglement.batch.rows_per_call"]["value"] == 10.0
    assert m["entanglement.batch.s"]["value"] == 2.0
    assert m["verify.descent.accept_ratio"]["value"] == 0.25
    assert m["verify.restarts_at_min"]["value"] == 0.75
    assert m["cli.startup_s"]["value"] == statistics.median([0.2, 0.1, 0.3])
    assert m["hilbert.eig.calls"]["value"] == 0
    assert m["trace.overhead_frac"] == {"value": 0.05, "unit": "ratio"}


def test_text_comparison_allows_only_noise_level_numbers_to_move():
    golden = "rank: 12/18\n  min defect 0.25 -> unextendible (residual 2.220e-16)\n"
    assert same_text(golden.replace("2.220e-16", "1.110e-16"), golden)
    assert not same_text(golden.replace("0.25", "0.26"), golden)
    assert not same_text(golden.replace("unextendible", "me_state_found"), golden)
    assert not same_text(golden.replace("12/18", "12/19"), golden)
