"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import decks
import gate
import run
import spans


@pytest.mark.parametrize("a, b", [(Fraction(2, 3), Fraction(2, 3)),
                                  (Fraction(1, 2), Fraction(7, 3))])
def test_dehp_closed_form_equals_partition_Z(a, b):
    from biops.asep import partition_Z

    for L in range(1, 9):
        z = partition_Z(L)
        assert gate.from_obj(z.to_obj()) == gate.dehp_Z(L)
        assert gate.peval(gate.dehp_Z(L), a, b) == z.eval(a, b)


def test_self_time_of_synthetic_nested_spans():
    # root [0,10]: children [1,4] and [3,6] overlap (union 5) plus [8,9];
    # the first child holds a grandchild [2,3]; the root ran 0.5 s of ring ops
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 9.0, 3.0]
    ring = [0.5, 0.0, 0.0, 0.0, 0.0]
    assert spans.self_times(parent, start, end, ring) == pytest.approx(
        [10 - 6 - 0.5, 3 - 1, 3, 1, 1])


def test_aggregate_counts_recursion_once():
    trace = {"names": ["cli.main", "expr.eval"],
             "name": [0, 1, 1], "parent": [-1, 0, 1], "nested": [0, 0, 1],
             "start": [0.0, 1.0, 2.0], "end": [10.0, 5.0, 4.0],
             "size": [0, 0, 0], "ring": [0.0, 0.0, 1.0], "request": [0, 0, 0],
             "ops": {"0": {"ring_s": 1.0, "ring.poly_mul_calls": 3}}}
    agg = spans.aggregate(trace)
    assert agg["inclusive"]["expr.eval"] == pytest.approx(4.0)
    assert agg["calls"]["expr.eval"] == 2
    assert agg["self"] == pytest.approx({"cli": 6.0, "expr": 3.0, "ring": 1.0})
    assert agg["roots"] == pytest.approx(10.0)
    assert agg["ops"]["ring.poly_mul_calls"] == 3


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_same_seed_same_request_stream(workload):
    def take(seed):
        batches = itertools.islice(decks.passes(workload, seed), 3)
        return [req for batch in batches for req in batch]

    assert take(7) == take(7)
    assert take(7) != take(8)
    first, second = itertools.islice(decks.passes(workload, 7), 2)
    assert sorted(r.check for r in first) == sorted(r.check for r in second)


def test_every_session_call_passes_the_gate_and_a_wrong_answer_fails():
    import session_worker

    rng = random.Random(3)
    pool = decks.word_pool()
    for kind, fixed in dict.fromkeys((k, tuple(f.items()))
                                     for k, f in decks.SESSION_TEMPLATES):
        if dict(fixed).get("L", 8) != 8:
            continue
        req = decks._session_call(kind, rng, pool, **dict(fixed))
        value, encode = session_worker._call(req.payload)
        obj = json.loads(json.dumps(encode(value)))
        assert gate.verify(req, obj, {}) is None, kind
        if kind == "lambda_value":
            assert gate.verify(req, str(Fraction(obj) + 1), {}) is not None


class CorruptingRunner(run.CliRunner):
    """Turns request 0's answer into non-JSON and request 3's into a wrong
    but well-formed answer."""

    def run(self, req, rid, traced):
        out = super().run(req, rid, traced)
        if rid == 0:
            return out._replace(out=b"{not json")
        if rid == 3:
            obj = json.loads(out.out)
            obj["det"][0]["c"] = str(int(obj["det"][0]["c"]) + 1)
            return out._replace(out=json.dumps(obj).encode())
        return out


def test_corrupted_answers_are_failures_and_the_run_goes_on(tmp_path):
    det2 = decks.cli_request(("det", "--n", "2"), "det", n=2)
    det3 = decks.cli_request(("det", "--n", "3"), "det", n=3)
    launcher = run.Launcher()
    try:
        records = run.measure([[det2, det3]] * 3, 60, 0,
                              CorruptingRunner(launcher, tmp_path))
    finally:
        launcher.close()
    assert len(records) == 6
    reasons, _ = run.judge(records)
    assert [why is not None for why in reasons] == [True, False, False, True,
                                                    False, False]
    assert "not JSON" in reasons[0] and "differs" in reasons[3]
    # the four good answers, each timed as the best of its request's repeats
    best2 = min(records[2].outcome.wall, records[4].outcome.wall)
    best3 = min(records[1].outcome.wall, records[5].outcome.wall)
    scaled, raw = run.e2e_metrics(records, reasons, [0.1], 0, scale=2.0)
    assert raw["latency_p50_s"] == pytest.approx((best2 + best3) / 2)
    assert raw["throughput_rps"] == pytest.approx(4 / (2 * best2 + 2 * best3))
    assert scaled["latency_p50_s"] == pytest.approx(2 * raw["latency_p50_s"])
    assert scaled["throughput_rps"] == pytest.approx(
        raw["throughput_rps"] / 2)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(decks.WORKLOADS)
