"""Trace completeness and exact counts of the benchmark workloads.

    python3 -m pytest bench -q

Each workload runs once per seed under the tracer.  The spans each layer is
expected to fire must fire, and the exact counts must not depend on the
seed; a rename that drops a traced layer fails here instead of showing up
as an idle layer.
"""

import json

import pytest

import tracing
from tracing import ROOT_SPAN, Tracer, summarize
from workloads import WORKLOADS, load_pme

pme = load_pme()

SEEDS = (0, 1, 2)
# workload -> span -> exact number of calls
EXPECTED_CALLS = {
    "solve-readme": {"solver.step": 65, "solver.Trajectory.record": 66, "cli.write_csv": 1},
    "blowup-j250": {"solver.step": 3216, "solver.Trajectory.record": 3484, "blowup.stage_delta": 268},
    "barenblatt-oracle": {"solver.step": 2001, "solver.Trajectory.record": 4},
}
EXPECTED_SPANS = {
    "solve-readme": {"cli.main", "cli.write_csv", "cli.write_json", "solver.solve_ball"},
    "blowup-j250": {"cli.main", "blowup.run_blowup", "blowup.stage_delta", "barriers.shifted_subsolution"},
    "barenblatt-oracle": {"solver.solve_ball", "grid.RadialGrid.uniform"},
}


def traced_run(name, seed, workdir):
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.run(workload.run, pme, inputs)
    finally:
        tracer.uninstall()
    return workload.check(inputs, result), summarize(tracer.spans), inputs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_fire_with_exact_counts(name, seed, tmp_path):
    outcome, spans, inputs = traced_run(name, seed, tmp_path)
    assert EXPECTED_SPANS[name] <= set(spans), sorted(spans)
    for span, calls in EXPECTED_CALLS[name].items():
        assert spans[span]["calls"] == calls, span
    if name == "blowup-j250":
        ledger = json.loads(inputs["ledger"].read_text())
        assert len(ledger["stages"]) == 268
        assert outcome.failures == []
    if name == "barenblatt-oracle":
        assert outcome.failures == []


def test_self_times_account_for_the_traced_wall_time(tmp_path):
    _, spans, _ = traced_run("solve-readme", 0, tmp_path)
    self_sum = sum(s["self_s"] for s in spans.values())
    assert self_sum == pytest.approx(spans[ROOT_SPAN]["total_s"], rel=1e-9)
    assert spans["solver.step"]["work"] == 65 * 1000


def test_uninstall_restores_every_binding():
    before = (pme.solver.step, pme.blowup.solve_ball, pme.solver.Trajectory.__dict__["record"])
    tracer = Tracer()
    tracer.install()
    assert pme.blowup.solve_ball is not before[1]
    assert pme.blowup.solve_ball is pme.solver.solve_ball
    tracer.uninstall()
    after = (pme.solver.step, pme.blowup.solve_ball, pme.solver.Trajectory.__dict__["record"])
    assert after == before


def test_missing_layer_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("solver.gone", "solver", "gone", None, None),))
    tracer = Tracer()
    with pytest.raises(LookupError, match="solver.gone"):
        tracer.install()
    assert tracer._restore == []
