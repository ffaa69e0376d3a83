"""Each checked record is checked once, when it is made, and then holds
exactly what its check passed: `AgentModel`, `CommGraph`,
`ProtocolRealization`, `ModeData`, `SolvabilityReport` and `SimConfig`
are frozen.  A field cannot be reassigned past its check, and
`dataclasses.replace`, the one way to change a field, checks the new
record again (the report derives its `overall` again)."""

import dataclasses

import numpy as np
import pytest

from h2sync.cases import CASE_DELTA, case1_graph, triple_integrator
from h2sync.closedloop import assemble_p2
from h2sync.conditions import full_report
from h2sync.errors import DimensionMismatch, RhoOutOfRange
from h2sync.graph import laplacian
from h2sync.protocol import synthesize_p2
from h2sync.sim import SimConfig


def model():
    return triple_integrator()


def graph():
    return case1_graph()


def realization():
    return synthesize_p2(triple_integrator(), 4.0, delta_hint=CASE_DELTA)


def modes():
    return assemble_p2(triple_integrator(), realization(), laplacian(case1_graph()))


def report():
    return full_report(triple_integrator(), case1_graph(), "p2")


def nan_A():
    A = triple_integrator().A.copy()
    A[0, 1] = np.nan
    return A


def lower_D():
    md = modes()
    D = md.D.copy()
    D[md.block(1), md.block(0)] = 0.5  # e driven by xbar: no longer block upper triangular
    return D


def self_loops():
    return case1_graph().adjacency + np.eye(3)


# record, field, a value its check refuses, the refusal
REFUSED = {
    "model-nan-A": (model, "A", nan_A, DimensionMismatch, "A contains NaN"),
    "graph-self-loops": (graph, "adjacency", self_loops, DimensionMismatch, "self-loops"),
    "realization-rho-below-one": (realization, "rho", lambda: 0.5, RhoOutOfRange, ">= 1"),
    "modes-lower-D": (modes, "D", lower_D, DimensionMismatch, "block upper triangular"),
}


# record, field, a value that would void its check if it were assigned
REASSIGNED = {**{case: row[:3] for case, row in REFUSED.items()},
              "report-clhp": (report, "clhp_eigs", lambda: False)}


@pytest.mark.parametrize("case", REASSIGNED)
def test_field_is_not_reassigned(case):
    make, field, bad = REASSIGNED[case]
    record = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, bad())


@pytest.mark.parametrize("case", REFUSED)
def test_replace_checks_again(case):
    make, field, bad, error, match = REFUSED[case]
    with pytest.raises(error, match=match):
        dataclasses.replace(make(), **{field: bad()})


def test_replaced_report_reads_its_own_conditions():
    passed = report()
    failed = dataclasses.replace(passed, clhp_eigs=False)
    assert passed.overall and not failed.overall
    assert failed.failed_conditions() == [("(b)", "clhp_eigs")]
    assert "overall=false" in failed.to_text()


def test_sim_config_keeps_the_step_count_its_check_computed():
    steps = {f.name: f for f in dataclasses.fields(SimConfig)}["steps"]
    assert not steps.init  # counted when the config is made, not passed in
    cfg = SimConfig(model=model(), graph=graph(), protocol=realization(), t_final=1.0, dt=1e-3)
    assert cfg.steps == 1000 and "steps" not in vars(SimConfig)
    assert dataclasses.replace(cfg, t_final=2.5).steps == 2500
