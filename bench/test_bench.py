"""Tests of the benchmark itself.

    python -m pytest bench -q
"""

import itertools

import pytest

import tracer as tracing
import worker
import workloads

PKG = worker.load_package()


def _take(workload, seed, count):
    return list(itertools.islice(workloads.stream(workload, seed), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    count = 2 * workloads.DECK_SIZE[workload]
    assert _take(workload, 3, count) == _take(workload, 3, count)
    assert _take(workload, 3, count) != _take(workload, 4, count)


def test_oracle_decks_have_a_fixed_mix_of_party_counts():
    for seed in (1, 2):
        deck = _take("oracle-wide", seed, workloads.DECK_SIZE["oracle-wide"])
        sizes = sorted(request["point"][0] for request in deck)
        assert sizes == sorted(n for n, k in workloads._ORACLE_N_DECK.items() for _ in range(k))


def test_wrong_closed_form_value_is_a_failed_request(tmp_path, monkeypatch):
    request = next(r for r in workloads.stream("closed-form", 1) if r["kind"] == "sweep" and r["q"] == 0)
    good = workloads.execute(PKG, request, str(tmp_path))
    original = PKG.cli.e_general
    monkeypatch.setattr(PKG.cli, "e_general", lambda *args: original(*args) * (1 + 1e-6))
    bad = workloads.execute(PKG, request, str(tmp_path))
    assert good.failure is None and bad.failure is None
    worker.judge(PKG, [good, bad])
    summary = worker.failure_summary([good, bad])
    assert good.failure is None
    assert bad.failure.startswith("E off by")
    assert (summary["failed"], summary["known_defect"]) == (1, 0)


def test_failed_oracle_check_is_a_failed_request(tmp_path, monkeypatch):
    request = {"kind": "oracle", "point": [5, 2, 1, 0.7, 0.3]}
    original = PKG.verify.gme_xstate
    monkeypatch.setattr(PKG.verify, "gme_xstate", lambda x: original(x) + 1e-6)
    outcome = workloads.execute(PKG, request, str(tmp_path))
    assert outcome.failure == "oracle-vs-analytic"
    assert not outcome.known_defect
    assert worker.failure_summary([outcome])["failed"] == 1


def test_crash_is_a_failed_request(tmp_path, monkeypatch):
    request = next(r for r in workloads.stream("closed-form", 1) if r["kind"] == "figures")

    def broken(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(PKG.cli, "_figure_table", broken)
    outcome = workloads.execute(PKG, request, str(tmp_path))
    assert outcome.failure == "ZeroDivisionError: injected"


def test_false_monotonicity_fail_is_named_as_the_known_defect(tmp_path):
    request = {"kind": "verify", "grid": [[3, 1, 1, 0.5, 0.2]], "scan": [26, 25]}
    outcome = workloads.execute(PKG, request, str(tmp_path))
    assert outcome.failure == "monotonicity-p26-q25"
    assert outcome.known_defect
    summary = worker.failure_summary([outcome])
    assert (summary["failed"], summary["known_defect"]) == (0, 1)
    assert summary["known_defects"] == {"monotonicity-p26-q25": 1}


def test_monotonicity_fail_outside_the_defect_window_is_a_failed_request():
    report = PKG.verify.monotonicity_scan(26, 25, steps=workloads.SCAN_STEPS).as_json()
    check = next(c for c in report if c["name"] == "monotonicity-p26-q25")
    assert workloads._known_defect(check, report)
    # The same false fail with D* moved two grid steps below d_max is not the defect.
    far = dict(check, **{"worst-case-inputs": dict(check["worst-case-inputs"], mass=0.99)})
    assert not workloads._known_defect(far, report)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    requests = _take(workload, 5, 4)
    untraced = [workloads.execute(PKG, r, str(tmp_path)) for r in requests]
    tracer = tracing.Tracer(keep_spans=100)
    uninstall = tracing.install(tracer)
    try:
        traced = [workloads.execute(PKG, r, str(tmp_path)) for r in requests]
    finally:
        uninstall()
    assert [o.output for o in traced] == [o.output for o in untraced]
    assert all(o.output for o in untraced)
    seconds, calls = tracer.layer_totals()
    expected = {"closed-form": "cli", "oracle-wide": "xstate", "verify-suite": "modes_state"}
    assert calls[expected[workload]] > 0
    assert len(tracer.spans) == 100
    # Uninstalling restores the plain functions.
    assert PKG.cli.main.__module__ == "dilaton_gme.cli" and not hasattr(PKG.cli.main, "__wrapped__")


def test_self_time_excludes_children():
    tracer = tracing.Tracer(keep_spans=10)

    def inner():
        return 1

    def outer():
        return tracer.span("b.inner", inner, (), {})

    tracer.span("a.outer", outer, (), {})
    (_, _, parent, name, start, end), (_, outer_id, top, _, o_start, o_end) = tracer.spans
    assert name == "b.inner" and parent == outer_id and top is None
    assert tracer.self_s["a.outer"] == pytest.approx((o_end - o_start) - (end - start), abs=1e-5)


def test_tail_percentile_does_not_depend_on_the_request_count():
    assert worker.tail([float(i) for i in range(100)]) == (89.0, 10)
    assert worker.tail([float(i) for i in range(1000)]) == (899.0, 100)
    assert worker.tail([float(i) for i in range(50)]) == (44.0, 5)


def test_failing_counter_is_counted_and_the_call_returns():
    tracer = tracing.Tracer()

    def broken_count(counts, result):
        raise AttributeError("no such field")

    assert tracer.span("xstate.extract_xstate", lambda: 7, (), {}, broken_count) == 7
    assert tracer.counts["trace.counter_failures"] == 1
    assert tracer.calls["xstate.extract_xstate"] == 1
