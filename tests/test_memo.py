"""Synthesis is computed once per model and once per (model, rho,
delta): the model-only solvability conditions of `full_report`, the
control CARE of `design` and the filter Riccati of
`ProtocolDesign.realize` are remembered.  A remembered result must look
exactly like a fresh one, apart from the time it takes, so every case
here runs on a cleared memo and again on a warm one."""

import dataclasses

import numpy as np
import pytest

from conftest import clear_synthesis_memos, defect_a_model

from h2sync import conditions, protocol, tolerances
from h2sync.cases import (
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from h2sync.conditions import AgentModel, full_report
from h2sync.errors import DeltaSearchExhausted, NoStabilizingSolution, PreconditionFailed
from h2sync.linalg import solve_care_standard, solve_filter_riccati
from h2sync.protocol import design, realization_to_text, synthesize_p1, synthesize_p2

MEMOS = (conditions._model_conditions, protocol._care_solution, protocol._filter_solution)
DESIGN_RHOS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0)


def lhp_zero_model():
    # C (sI - A)^-1 E = (1 + s)/s^2: one invariant zero, at -1
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    E = np.array([[0.0], [1.0]])
    return AgentModel(A, E.copy(), np.array([[1.0, 1.0]]), E)


def zero_column_model():
    # E with a zero column: the disturbance channel is not left
    # invertible, so condition (c) fails
    m = triple_integrator()
    return AgentModel(m.A, m.B, m.C, np.hstack([m.E, np.zeros((3, 1))]))


CASES = {
    "reference-None": (triple_integrator, None),
    "reference-p2": (triple_integrator, "p2"),
    "full-state-None": (triple_integrator_full_state, None),
    "full-state-p1": (triple_integrator_full_state, "p1"),
    "full-state-p2": (triple_integrator_full_state, "p2"),
    "lhp-zero-p2": (lhp_zero_model, "p2"),
    "fails-c-None": (zero_column_model, None),
    "fails-c-p2": (zero_column_model, "p2"),
}


@pytest.fixture(params=["cleared", "warm"])
def memo(request):
    """Clear the memos; for "warm", fill them first with other models and
    rho, so a test's own first call is a miss in a memo that is not empty."""
    clear_synthesis_memos()
    if request.param == "warm":
        for case in ("reference-p2", "full-state-p1", "fails-c-p2"):
            make, kind = CASES[case]
            outcome(make(), kind)
        synthesize_p2(triple_integrator(), 2.5)
        synthesize_p2(triple_integrator_full_state(), 2.5, 0.01)
    return request.param


def outcome(model, kind, g=None):
    """Everything a caller sees from the per-model half: the report,
    and the design's P or the refusal."""
    report = full_report(model, g, kind)
    try:
        P = design(model, kind or ("p1" if report.coupling_kind == "full-state" else "p2"), g).P
    except PreconditionFailed as exc:
        P = str(exc)
    return report, P


def assert_same(a, b):
    (report_a, P_a), (report_b, P_b) = a, b
    assert report_a.to_text() == report_b.to_text()
    for f in dataclasses.fields(report_a):
        x, y = getattr(report_a, f.name), getattr(report_b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name
    if isinstance(P_a, np.ndarray):
        assert P_a.tobytes() == P_b.tobytes()
    else:
        assert P_a == P_b


@pytest.mark.parametrize("graph", [None, case1_graph], ids=["no-graph", "case1"])
@pytest.mark.parametrize("case", CASES)
def test_warm_result_equals_cold(case, graph, memo):
    make, kind = CASES[case]
    g = None if graph is None else graph()
    cold = outcome(make(), kind, g)
    warm = outcome(make(), kind, g)
    assert_same(cold, warm)
    if case.startswith("fails-c"):
        assert not cold[0].minphase_leftinv and isinstance(cold[1], str)
    else:
        assert cold[0].overall and isinstance(cold[1], np.ndarray)


def test_thresholds_are_read_at_call_time_with_a_warm_memo(memo, monkeypatch):
    # the twin of test_tolerances.py::test_thresholds_are_read_at_call_time
    m = AgentModel([[1e-3]], [[1.0]], [[1.0]], [[1.0]])
    default = tolerances.DEFAULT
    assert not full_report(m).clhp_eigs
    assert not full_report(m).clhp_eigs
    monkeypatch.setattr(tolerances, "DEFAULT",
                        dataclasses.replace(default, clhp_margin=1e-3))
    assert full_report(m).clhp_eigs
    monkeypatch.setattr(tolerances, "DEFAULT", default)
    assert not full_report(m).clhp_eigs


def test_in_place_edit_of_a_model_array_shows(memo):
    model = triple_integrator()
    assert full_report(model, kind="p2").overall
    P = design(model, "p2").P
    model.B *= 2.0
    P2 = design(model, "p2").P
    assert P2.tobytes() == solve_care_standard(model.A, model.B).solution.tobytes()
    assert P2.tobytes() != P.tobytes()
    model.A[0, 0] = 1.0  # an eigenvalue at +1: condition (b) fails
    report = full_report(model, kind="p2")
    assert not report.clhp_eigs and ("(b)", "clhp_eigs") in report.failed_conditions()
    with pytest.raises(PreconditionFailed):
        design(model, "p2")


def test_reassigned_field_goes_through_the_gate(memo):
    # the key holds the gated float bytes, so an integer A reads as its
    # values, not as its raw bytes
    model = triple_integrator()
    floats = outcome(model, "p2")
    model.A = model.A.astype(int)
    assert_same(outcome(model, "p2"), floats)


def test_returned_arrays_belong_to_the_caller(memo):
    model = lhp_zero_model()
    first = outcome(model, "p2")
    report, P = outcome(model, "p2")
    assert report.invariant_zeros and report.disturbance_gain.size
    report.disturbance_gain[:] = 99.0
    report.invariant_zeros.append(5j)
    P[:] = 7.0
    synthesize_p2(model, 2.0).P[:] = 7.0
    assert_same(outcome(model, "p2"), first)


def test_care_failure_is_not_remembered(memo, monkeypatch):
    model = lhp_zero_model()
    calls = []

    def fail_once(A, B):
        calls.append(1)
        if len(calls) == 1:
            raise NoStabilizingSolution("injected")
        return solve_care_standard(A, B)

    monkeypatch.setattr(protocol, "solve_care_standard", fail_once)
    with pytest.raises(NoStabilizingSolution, match="injected"):
        design(model, "p2")
    P = design(model, "p2").P
    assert len(calls) == 2
    assert P.tobytes() == solve_care_standard(model.A, model.B).solution.tobytes()


def realized(model, rho, delta=None):
    """Everything a caller sees of one p2 realization: delta, the bytes
    of Q and the text, or the refusal's message and diagnostics."""
    try:
        real = design(model, "p2").realize(rho, delta)
    except DeltaSearchExhausted as exc:
        return str(exc), exc.diagnostics
    return real.delta, real.Q_rho.tobytes(), realization_to_text(real)


REALIZE_CASES = {
    "reference": triple_integrator,
    "full-state": triple_integrator_full_state,
    "lhp-zero": lhp_zero_model,
}


@pytest.mark.parametrize("rho", [1.0, 4.0, 32.0])
@pytest.mark.parametrize("case", REALIZE_CASES)
def test_warm_realization_equals_cold(case, rho, memo):
    make = REALIZE_CASES[case]
    searched = realized(make(), rho)
    given_delta = searched[0] / 3  # feasible, and off the halving sequence
    given = realized(make(), rho, given_delta)
    hits = protocol._filter_solution.cache_info().hits
    assert realized(make(), rho) == searched
    assert realized(make(), rho, given_delta) == given
    assert protocol._filter_solution.cache_info().hits == hits + 2
    m = make()
    for delta, Q in (searched[:2], given[:2]):
        assert Q == solve_filter_riccati(m.A, m.E, m.C, rho, delta).solution.tobytes()


@pytest.mark.parametrize("make, delta", [(defect_a_model, None), (triple_integrator, 0.5)],
                         ids=["search", "given"])
def test_refusal_is_raised_afresh_on_every_call(make, delta, memo):
    misses = protocol._filter_solution.cache_info().misses
    refusals = [realized(make(), 4.0, delta) for _ in range(3)]
    assert protocol._filter_solution.cache_info().misses == misses + 3
    message, diagnostics = refusals[0]
    assert refusals == [(message, diagnostics)] * 3
    assert len(diagnostics) == (40 if delta is None else 1)


def test_replaced_thresholds_reach_a_warm_filter_memo(memo, monkeypatch):
    model = triple_integrator()
    before = realized(model, 4.0)
    assert realized(model, 4.0) == before and before[0] == 2.0**-8
    default = tolerances.DEFAULT
    # a residual cap far below rounding refuses the larger deltas
    monkeypatch.setattr(tolerances, "DEFAULT",
                        dataclasses.replace(default, filter_residual=1e-18))
    replaced = realized(model, 4.0)
    assert replaced != before
    clear_synthesis_memos()
    assert realized(model, 4.0) == replaced
    monkeypatch.setattr(tolerances, "DEFAULT", default)
    assert realized(model, 4.0) == before


@pytest.mark.parametrize("field", ["C", "E"])
def test_in_place_edit_of_C_or_E_shows_in_the_realization(field, memo):
    model = triple_integrator()
    before = design(model, "p2").realize(4.0)
    if field == "C":
        model.C[0, 1] = 1.0  # an invariant zero at -1
    else:
        model.E *= 2.0
    after = design(model, "p2").realize(4.0)
    Q = solve_filter_riccati(model.A, model.E, model.C, 4.0, after.delta).solution
    assert after.Q_rho.tobytes() == Q.tobytes() != before.Q_rho.tobytes()


def test_returned_Q_belongs_to_the_caller(memo):
    model = lhp_zero_model()
    first = realized(model, 4.0)
    design(model, "p2").realize(4.0).Q_rho[:] = 7.0
    synthesize_p2(model, 4.0).Q_rho[:] = 7.0
    assert realized(model, 4.0) == first


def test_memo_is_bounded(memo):
    maxsize = {fn.cache_info().maxsize for fn in MEMOS}
    assert len(maxsize) == 1 and None not in maxsize
    for k in range(2 * maxsize.pop()):
        model = AgentModel([[-1.0 - k]], [[1.0]], [[1.0]], [[1.0]])
        design(model, "p1")
        design(model, "p2").realize(1.0 + k)
    for fn in MEMOS:
        info = fn.cache_info()
        assert info.currsize <= info.maxsize


class TestDesignWorkloadCost:
    """The `design` benchmark's pattern (13 rho; per rho, reports on both
    reference graphs and p1 and p2 synthesis) checks each (model,
    coupling) once, solves the one (A, B) CARE once and searches the
    filter Riccati once per rho: a second pass solves nothing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        clear_synthesis_memos()
        calls = {"invariant_zeros": 0, "check_stabilizable": 0, "solve_care_standard": 0,
                 "solve_filter_riccati": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(conditions, "invariant_zeros")
        count(conditions, "check_stabilizable")
        count(protocol, "solve_care_standard")
        count(protocol, "solve_filter_riccati")
        return calls

    def test_design_pattern(self, calls):
        model, model_fs = triple_integrator(), triple_integrator_full_state()
        full_report(model)
        full_report(model_fs)
        one_cold_report_per_coupling = calls["check_stabilizable"]
        clear_synthesis_memos()
        calls.update(dict.fromkeys(calls, 0))
        graphs = (case1_graph(), case2_graph())

        def one_pass():
            for rho in DESIGN_RHOS:
                assert all(full_report(model, g).overall for g in graphs)
                synthesize_p1(model_fs, rho)
                synthesize_p2(model, rho)

        one_pass()
        assert calls == {
            "invariant_zeros": 1,
            "check_stabilizable": one_cold_report_per_coupling,
            "solve_care_standard": 1,
            # the delta searches of the 13 rho: 99 tries refused at the
            # imaginary-axis test, 35 at Q > 0 and 13 that pass
            "solve_filter_riccati": 147,
        }
        calls.update(dict.fromkeys(calls, 0))
        one_pass()
        assert calls == dict.fromkeys(calls, 0)
