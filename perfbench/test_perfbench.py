"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spectroid import cstarcat, duality, numkit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _deck_bytes(deck) -> bytes:
    return pickle.dumps(
        [(c.label, [i.tobytes() if isinstance(i, np.ndarray) else i for i in c.inputs])
         for c in deck]
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name].make_deck
    first = _deck_bytes(make(11))
    assert first == _deck_bytes(make(11))
    assert first != _deck_bytes(make(12))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    sizes = {name: len(w.make_deck(0)) for name, w in workloads.WORKLOADS.items()}
    assert sizes == {"category-roundtrip": 43, "spaceoid-roundtrip": 80, "funcalc": 240}


def _run_printed(monkeypatch, trace: int) -> dict:
    """Run the whole runner on a six-case deck and parse its last line."""
    full = workloads.WORKLOADS["spaceoid-roundtrip"]
    small = workloads.Workload(
        full.name, full.deadline_s, lambda s: full.make_deck(s)[:6], full.run
    )
    monkeypatch.setitem(harness.WORKLOADS, full.name, small)
    monkeypatch.setattr(harness, "probe_setup", lambda name, seed: 0.5)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", full.name, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert "run_record" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, trace, key):
    result = _run_printed(monkeypatch, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 6 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_traced_run_covers_spaceoid_layers(monkeypatch):
    metrics = _run_printed(monkeypatch, 1)["metrics"]
    assert metrics["duality.evaluation.calls"]["value"] == 6
    assert metrics["trace.covered_frac"]["value"] > 0.9
    assert metrics["cstarcat.close.calls"]["value"] == 0
    assert metrics["serial.parse.bytes"]["value"] > 0


def test_case_past_deadline_fails():
    out = harness.time_case("sleeper", lambda: (time.sleep(5), (True, b""))[1], (), 0.05)
    assert out.status == "deadline" and not out.passed
    assert out.seconds < 1.0


def test_raising_case_fails_without_aborting():
    def refuse():
        raise ValueError("no")

    out = harness.time_case("refuser", refuse, (), 5.0)
    assert out.status == "ValueError" and not out.passed


def test_failed_cases_count_against_throughput_and_latency():
    wl = workloads.WORKLOADS["funcalc"]
    outcomes = [harness.Outcome("ok", 0.01, "ok", "x")] * 8 + [
        harness.Outcome("slow", wl.deadline_s, "deadline", "")
    ] * 2
    m = harness.end_to_end_metrics(wl, outcomes, [1.0, 2.0, 3.0])
    assert m["cases_per_s"][0] == pytest.approx(8 / (0.08 + 2 * wl.deadline_s))
    assert m["pass_frac"][0] == pytest.approx(0.8)
    # two cases in ten at the deadline pull p90 most of the way to it
    assert m["case_p50_ms"][0] < 0.1e3 * wl.deadline_s
    assert m["case_p90_ms"][0] > 0.6e3 * wl.deadline_s
    assert m["setup_s"][0] == 2.0


def test_timed_run_takes_median_time_and_never_reruns_a_failure(monkeypatch):
    # a host at the reference speed: scaling leaves times as measured
    monkeypatch.setattr(harness.speed, "sample", lambda: harness.speed.NOMINAL_S)
    calls = {"ok": 0, "late": 0, "bad": 0}
    naps = {"ok": [0.04, 0.01], "late": [0.0, 0.3]}

    def call(name):
        calls[name] += 1
        if name == "bad":
            raise ValueError("refused")
        time.sleep(naps[name][calls[name] - 1])
        return True, name.encode()

    wl = workloads.Workload("fake", 0.2, None, call)
    deck = [workloads.Case(n, (n,)) for n in ("ok", "late", "bad")]
    outcomes, passes, _, slowdown = harness.run_timed(wl, deck, 0.0)
    assert passes == harness.MIN_PASSES == 2 and slowdown == 1.0
    assert calls == {"ok": 2, "late": 2, "bad": 1}
    ok, late, bad = outcomes
    # the median of two attempts is their mean
    assert ok.passed and 0.02 < ok.seconds < 0.035
    assert late.status == "deadline" and bad.status == "ValueError"


def test_timed_run_stops_before_a_pass_that_would_overrun():
    def nap():
        time.sleep(0.05)
        return True, b""

    wl = workloads.Workload("fake", 1.0, None, nap)
    _, passes, wall, _ = harness.run_timed(wl, [workloads.Case("nap", ())], 0.32)
    assert 4 <= passes <= 7 and wall < 0.4


def test_times_are_scaled_to_the_reference_speed():
    assert harness.speed.scale(1.0, 2 * harness.speed.NOMINAL_S) == pytest.approx(0.5)
    assert 0 < harness.speed.sample() < 0.1


def test_hd_quantile():
    assert harness.hd_quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    assert harness.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    x = np.random.default_rng(0).standard_normal(2001)
    assert harness.hd_quantile(x, 0.5) == pytest.approx(np.median(x), abs=0.02)
    assert harness.hd_quantile(x, 0.9) == pytest.approx(np.percentile(x, 90), abs=0.05)


def test_wrapped_functions_return_the_same_values():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    mats.append(mats[0] + mats[1])
    pres = cstarcat.CategoryPresentation(
        objects=(("A", 3),), generators={("A", "A"): [np.diag([1.0, 2.0, 2.0])]}
    )
    plain_ortho = numkit.hs_orthonormalize(mats)
    plain_cat = cstarcat.close(pres)
    originals = (numkit.hs_orthonormalize, cstarcat.close, duality.joint_diagonalize)

    t = tracer.Tracer()
    t.install()
    try:
        assert duality.joint_diagonalize is not originals[2]
        traced_ortho = numkit.hs_orthonormalize(mats)
        traced_cat = cstarcat.close(pres)
    finally:
        t.uninstall()

    assert (numkit.hs_orthonormalize, cstarcat.close, duality.joint_diagonalize) == originals
    assert traced_ortho.rank == plain_ortho.rank == 4
    assert all(np.array_equal(a, b) for a, b in zip(traced_ortho.basis, plain_ortho.basis))
    assert traced_cat.blocks.keys() == plain_cat.blocks.keys()
    assert all(
        np.array_equal(a, b)
        for k in plain_cat.blocks
        for a, b in zip(traced_cat.blocks[k], plain_cat.blocks[k])
    )
    stats = t.stats["cstarcat.close"]
    assert stats["calls"] == 1 and 0 <= stats["self_s"] <= stats["total_s"]
    assert t.stats["numkit.hs_orthonormalize"]["calls"] >= 2
    assert 0 < t.ortho_kept <= t.ortho_in


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "funcalc", "--seed", "1"]) == 2

