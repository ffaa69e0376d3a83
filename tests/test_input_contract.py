"""The input contract at the package boundary.

Every public function that takes state-space matrices refuses a NaN
entry, complex entries, a matrix of the wrong shape, a matrix passed as
None and an empty state (n = 0) with an H2SyncError subclass and no
warning.  A realization is refused by every function that uses it with
a model it does not fit.  Seeds, signals, graph headers, file text that
is not a str, tolerances, rho, delta, dt and t_final values that are
not real numbers, the arrays of an error-form loop's `ModeData`, a stacked
loop that does not fit `reduce_to_differences`, and a graph, loop or
`SimConfig` field of another type get typed errors as well, and the CLI
exits 2 with one stderr line on the model and graph files below.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from h2sync.cases import (
    CASE_DELTA,
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from h2sync.cli import main
from h2sync.closedloop import (
    ClosedLoop,
    assemble_p1,
    assemble_p2,
    assemble_stacked,
    error_h2,
    reduce_to_differences,
    rho_scaling_probe,
)
from h2sync.conditions import (
    AgentModel,
    check_clhp,
    check_detectable,
    check_disturbance_match,
    check_minphase_leftinv,
    check_stabilizable,
    full_report,
    invariant_zeros,
    model_to_text,
    parse_model,
)
from h2sync.errors import (
    ConfigInvalid,
    DimensionMismatch,
    H2SyncError,
    ParseError,
    RhoOutOfRange,
)
from h2sync.graph import (
    CommGraph,
    graph_to_text,
    has_spanning_tree,
    laplacian,
    parse_graph,
    reduced_spectrum_check,
)
from h2sync.linalg import (
    h2_norm,
    hinf_norm,
    is_hurwitz,
    solve_care_standard,
    solve_filter_riccati,
    solve_lyapunov,
    spectral_abscissa,
)
from h2sync.protocol import (
    ProtocolDesign,
    ProtocolRealization,
    _require_fits,
    controller_matrices,
    design,
    parse_realization,
    realization_to_text,
    synthesize_p1,
    synthesize_p2,
)
from h2sync.sim import (
    SimConfig,
    monte_carlo_rms,
    rms,
    rms_vs_h2_consistency,
    simulate,
    step_matrices,
    white_noise_rms,
)

# a valid n = 2 system, the same matrix with a wrong shape, and n = 0;
# W is the right-hand side of a Lyapunov equation (n x n)
GOOD = dict(A=[[-1.0, 1.0], [0.0, -2.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
            E=[[0.0], [1.0]], W=np.eye(2))
WRONG_SHAPE = dict(A=np.ones((1, 2)), B=np.ones((3, 1)), C=np.ones((1, 3)),
                   E=np.ones((3, 1)), W=np.eye(3))
EMPTY = dict(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)),
             E=np.zeros((0, 1)), W=np.zeros((0, 0)))

# (function, the matrix each positional argument plays)
MATRIX_FUNCTIONS = {
    "AgentModel": (AgentModel, "ABCE"),
    "solve_care_standard": (solve_care_standard, "AB"),
    "solve_filter_riccati": (lambda A, E, C: solve_filter_riccati(A, E, C, 1.0, 0.5), "AEC"),
    "solve_lyapunov": (solve_lyapunov, "AW"),
    "h2_norm": (h2_norm, "ABC"),
    "hinf_norm": (hinf_norm, "ABC"),
    "spectral_abscissa": (spectral_abscissa, "A"),
    "is_hurwitz": (is_hurwitz, "A"),
    "check_stabilizable": (check_stabilizable, "AB"),
    "check_detectable": (check_detectable, "AC"),
    "check_clhp": (check_clhp, "A"),
    "invariant_zeros": (invariant_zeros, "AEC"),
    "check_minphase_leftinv": (check_minphase_leftinv, "AEC"),
    "check_disturbance_match": (check_disturbance_match, "BE"),
    "step_matrices": (lambda A, B: step_matrices(A, B, 0.01, "rk4"), "AB"),
    "white_noise_rms": (lambda A, B, C: white_noise_rms(A, B, C, 0.01, 2.0, [0]), "ABC"),
}


def _with_nan(M):
    M = np.array(M, dtype=float)
    M.flat[-1] = np.nan
    return M


def _bad_arguments():
    """(id, function, arguments): each argument in turn with a NaN, with
    complex entries, with a wrong shape and as None, then every argument
    at n = 0."""
    for name, (fn, roles) in MATRIX_FUNCTIONS.items():
        for k, role in enumerate(roles):
            for label, bad in (("nan", _with_nan(GOOD[role])),
                               ("complex", (1 + 1j) * np.asarray(GOOD[role])),
                               ("shape", WRONG_SHAPE[role]),
                               ("none", None)):
                args = [GOOD[r] for r in roles]
                args[k] = bad
                yield f"{name}-{label}-{role}", fn, args
        yield f"{name}-n0", fn, [EMPTY[r] for r in roles]


BAD = list(_bad_arguments())


def _quietly(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@pytest.mark.parametrize("name", MATRIX_FUNCTIONS)
def test_valid_system_accepted(name):
    fn, roles = MATRIX_FUNCTIONS[name]
    _quietly(fn, *(GOOD[r] for r in roles))


@pytest.mark.parametrize("fn, args", [case[1:] for case in BAD], ids=[case[0] for case in BAD])
def test_bad_matrix_refused(fn, args):
    with pytest.raises(H2SyncError):
        _quietly(fn, *args)


def test_zero_inputs_and_outputs_stay_legal():
    A, B, C = GOOD["A"], np.zeros((2, 0)), np.zeros((0, 2))
    model = AgentModel(A, B, C, np.zeros((2, 0)))
    assert (model.m, model.p, model.w) == (0, 0, 0)
    assert check_disturbance_match(GOOD["B"], np.zeros((2, 0)))[0]


def _sim_config(model, real):
    return SimConfig(model=model, graph=case1_graph(), protocol=real, t_final=1.0, dt=1e-2)


class TestFit:
    """A realization is used only with a model of its n, a p1
    realization only with a full-state coupled model, and a p2
    realization only while its observer gain Q_rho C^T / delta**2 is
    finite."""

    P1 = synthesize_p1(triple_integrator_full_state(), 2.0)
    P2 = synthesize_p2(triple_integrator(), 4.0, delta_hint=4e-4)
    # delta**2 = 1e-320 is a positive finite float, but the gain overflows
    P2_TINY_DELTA = parse_realization(realization_to_text(P2).replace(
        f"delta {P2.delta:.17g}\n", "delta 1e-160\n"))
    PARTIAL = triple_integrator()
    SCALAR_FULL = AgentModel.full_state([[0.0]], [[1.0]], [[1.0]])
    SCALAR_PARTIAL = AgentModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    CASES = {
        "p1-on-partial": (PARTIAL, P1),
        "p1-n-mismatch": (SCALAR_FULL, P1),
        "p2-n-mismatch": (SCALAR_PARTIAL, P2),
        "p2-gain-overflows": (PARTIAL, P2_TINY_DELTA),
    }

    USERS = {
        "assemble_p1": lambda m, r: assemble_p1(m, r, laplacian(case1_graph())),
        "assemble_p2": lambda m, r: assemble_p2(m, r, laplacian(case1_graph())),
        "assemble_stacked": lambda m, r: assemble_stacked(m, r, case1_graph()),
        "controller_matrices": lambda m, r: controller_matrices(r, m),
        "SimConfig": _sim_config,
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("user", USERS)
    def test_refused(self, user, case):
        model, real = self.CASES[case]
        with pytest.raises(DimensionMismatch):
            _quietly(self.USERS[user], model, real)

    def test_fitting_pairs_accepted(self):
        full = triple_integrator_full_state()
        _require_fits(self.P1, full)
        _require_fits(self.P2, self.PARTIAL)
        _require_fits(self.P2, full)  # p2 fits a C = I model too
        assemble_stacked(full, self.P1, case1_graph())
        _sim_config(self.PARTIAL, self.P2)


class TestProtocolKind:
    """full_report checks the conditions of protocol p1 (which needs
    C = I) or p2, and without a kind those of p1 exactly when C = I."""

    FULL, PARTIAL = triple_integrator_full_state(), triple_integrator()

    @pytest.mark.parametrize("model, kind", [(FULL, "p3"), (FULL, ""), (FULL, 1),
                                             (PARTIAL, "p1")],
                             ids=["p3", "empty", "int", "p1-on-partial"])
    def test_refused(self, model, kind):
        with pytest.raises(DimensionMismatch):
            _quietly(full_report, model, case1_graph(), kind)

    @pytest.mark.parametrize("model, kind, coupling", [
        (FULL, None, "full-state"), (FULL, "p1", "full-state"), (FULL, "p2", "partial-state"),
        (PARTIAL, None, "partial-state"), (PARTIAL, "p2", "partial-state"),
    ], ids=["full-none", "full-p1", "full-p2", "partial-none", "partial-p2"])
    def test_accepted(self, model, kind, coupling):
        assert _quietly(full_report, model, case1_graph(), kind).coupling_kind == coupling


class TestRhoAndDelta:
    """rho and delta each have one rule, `require_rho` and
    `require_delta`, which refuse a value that is not a real number."""

    PARTIAL = triple_integrator()
    ROWS = {
        "synthesize_p1-text": (lambda m: synthesize_p1(triple_integrator_full_state(), "2"),
                               RhoOutOfRange),
        "synthesize_p2-none": (lambda m: synthesize_p2(m, None), RhoOutOfRange),
        "filter-rho-complex": (lambda m: solve_filter_riccati(m.A, m.E, m.C, 4j, 0.1),
                               RhoOutOfRange),
        "filter-delta-text": (lambda m: solve_filter_riccati(m.A, m.E, m.C, 4.0, "0.1"),
                              DimensionMismatch),
        "realization-delta-text": (lambda m: ProtocolRealization("p2", 2.0, np.eye(2), "0.1",
                                                                 np.eye(2)),
                                   DimensionMismatch),
        # a delta that is no real number is refused before the memo
        # lookup, where the unhashable ones would raise a bare TypeError
        "synthesize_p2-delta-list": (lambda m: synthesize_p2(m, 4.0, delta_hint=[0.1]),
                                     DimensionMismatch),
        "synthesize_p2-delta-0d-array": (lambda m: synthesize_p2(m, 4.0,
                                                                 delta_hint=np.array(0.1)),
                                         DimensionMismatch),
        "synthesize_p2-delta-dict": (lambda m: synthesize_p2(m, 4.0, delta_hint={}),
                                     DimensionMismatch),
        "realize-delta-list": (lambda m: design(m, "p2").realize(4.0, [0.1]),
                               DimensionMismatch),
        "realize-delta-0d-array": (lambda m: design(m, "p2").realize(4.0, np.array(0.1)),
                                   DimensionMismatch),
        "realize-delta-dict": (lambda m: design(m, "p2").realize(4.0, {}), DimensionMismatch),
        "probe-rho-text": (lambda m: rho_scaling_probe(m, case1_graph(), "p2", ["4"]),
                           RhoOutOfRange),
        "probe-rho-mixed": (lambda m: rho_scaling_probe(m, case1_graph(), "p2", [4.0, "4"]),
                            RhoOutOfRange),
        "probe-rho-scalar": (lambda m: rho_scaling_probe(m, case1_graph(), "p2", 4.0),
                             RhoOutOfRange),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_refused(self, row):
        call, error = self.ROWS[row]
        with pytest.raises(error):
            _quietly(call, self.PARTIAL)


class TestDeltaSquare:
    """Every user of a p2 realization divides by delta**2, so a delta
    whose square leaves the positive finite floats is refused where the
    realization is made: `ProtocolRealization` with DimensionMismatch,
    which `parse_realization` maps to ParseError."""

    REAL = synthesize_p2(triple_integrator(), 4.0, delta_hint=CASE_DELTA)
    DELTAS = {"overflows": 1e300, "underflows": 1e-200}

    @pytest.mark.parametrize("delta", DELTAS.values(), ids=DELTAS)
    def test_parse_refused(self, delta):
        text = realization_to_text(self.REAL)
        bad = text.replace(f"delta {CASE_DELTA:.17g}\n", f"delta {delta:.17g}\n")
        assert bad != text
        with pytest.raises(ParseError, match="delta"):
            _quietly(parse_realization, bad)

    @pytest.mark.parametrize("delta", DELTAS.values(), ids=DELTAS)
    def test_realization_refused(self, delta):
        real = self.REAL
        with pytest.raises(DimensionMismatch, match="delta"):
            _quietly(ProtocolRealization, "p2", real.rho, real.P, delta, real.Q_rho)


class TestReduceToDifferences:
    """`reduce_to_differences` refuses a loop whose matrices are not
    those of a stacked loop of a whole N >= 2 agents for its model and
    realization, before it builds the transform."""

    FULL = triple_integrator_full_state()
    P1 = synthesize_p1(FULL, 2.0)
    LOOP = assemble_stacked(FULL, P1, case1_graph())  # N = 3, n = n_c = 3, w = 1
    ROWS = {
        "states-not-whole-agents": (ClosedLoop(LOOP.A_cl[:-1, :-1], LOOP.B_cl[:-1],
                                               LOOP.C_cl[:, :-1]), FULL, P1),
        # the assemble_stacked shapes of N = 1: n + n_c = 6 states, w = 1, no output
        "one-agent": (ClosedLoop(LOOP.A_cl[:6, :6], LOOP.B_cl[:6, :1], LOOP.C_cl[:0, :6]),
                      FULL, P1),
        "error-form": (ClosedLoop(*assemble_p1(FULL, P1, laplacian(case1_graph())).dense()),
                       FULL, P1),
        "A_cl-not-square": (dataclasses.replace(LOOP, A_cl=LOOP.A_cl[:, :-1]), FULL, P1),
        "B_cl-rows": (dataclasses.replace(LOOP, B_cl=LOOP.B_cl[:-1]), FULL, P1),
        "C_cl-columns": (dataclasses.replace(LOOP, C_cl=LOOP.C_cl[:, :-1]), FULL, P1),
        "other-realization": (LOOP, triple_integrator(), TestFit.P2),
        "realization-not-fitting": (LOOP, TestFit.SCALAR_FULL, P1),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_refused(self, row):
        with pytest.raises(DimensionMismatch):
            _quietly(reduce_to_differences, *self.ROWS[row])


class TestArgumentTypes:
    """A model, graph, Laplacian pair or realization of another type is
    refused with DimensionMismatch naming the type expected, by the one
    check of that type."""

    FULL, PARTIAL = triple_integrator_full_state(), triple_integrator()
    ROWS = {
        "graph_to_text-array": (lambda: graph_to_text(np.zeros((3, 3))), "CommGraph"),
        "reduced_spectrum_check-array": (lambda: reduced_spectrum_check(np.zeros((3, 3)), 1e-8),
                                         "LaplacianPair"),
        "assemble_p1-lp-array": (lambda: assemble_p1(TestArgumentTypes.FULL, TestFit.P1,
                                                     np.zeros((2, 2))), "LaplacianPair"),
        "assemble_p2-lp-array": (lambda: assemble_p2(TestArgumentTypes.PARTIAL, TestFit.P2,
                                                     np.zeros((2, 2))), "LaplacianPair"),
        "controller_matrices-none": (lambda: controller_matrices(None, TestArgumentTypes.FULL),
                                     "ProtocolRealization"),
        "controller_matrices-model-none": (lambda: controller_matrices(TestFit.P1, None),
                                           "AgentModel"),
        "assemble_p2-model-none": (lambda: assemble_p2(None, TestFit.P2,
                                                       laplacian(case1_graph())), "AgentModel"),
        "reduce_to_differences-none": (lambda: reduce_to_differences(
            TestReduceToDifferences.LOOP, TestArgumentTypes.FULL, None), "ProtocolRealization"),
        "realization_to_text-none": (lambda: realization_to_text(None), "ProtocolRealization"),
        "full_report-none": (lambda: full_report(None), "AgentModel"),
        "design-none": (lambda: design(None, "p2"), "AgentModel"),
        "model_to_text-none": (lambda: model_to_text(None), "AgentModel"),
        "realize-model-none": (lambda: ProtocolDesign(None, "p2", TestFit.P2.P).realize(4.0),
                               "AgentModel"),
        "laplacian-array": (lambda: laplacian(np.zeros((3, 3))), "CommGraph"),
        "has_spanning_tree-array": (lambda: has_spanning_tree(np.zeros((3, 3))), "CommGraph"),
        "reduce_to_differences-mode-data": (lambda: reduce_to_differences(
            assemble_p1(TestArgumentTypes.FULL, TestFit.P1, laplacian(case1_graph())),
            TestArgumentTypes.FULL, TestFit.P1), "ClosedLoop"),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_refused(self, row):
        call, expected = self.ROWS[row]
        with pytest.raises(DimensionMismatch, match=f"expected an? {expected}, got"):
            _quietly(call)


# the case-1 p2 loop at rho = 4
MODES = assemble_p2(triple_integrator(), synthesize_p2(triple_integrator(), 4.0,
                                                       delta_hint=CASE_DELTA),
                    laplacian(case1_graph()))


def _mode_rows(md):
    """(id, field, bad value): `md` with a non-finite, complex, text,
    ragged or misshapen array, one block or three input terms."""
    for field in ("D", "L_reduced", "E"):
        for label, bad in (("nan", np.nan), ("inf", np.inf)):
            v = getattr(md, field).copy()
            v.flat[-1] = bad
            yield f"{field}-{label}", field, v
        yield f"{field}-complex", field, (1 + 1j) * getattr(md, field)
    for field in ("D", "E"):
        yield f"{field}-text", field, getattr(md, field).astype(str)
        ragged = getattr(md, field).tolist()
        ragged[-1] = ragged[-1][:-1]  # nested lists numpy cannot stack
        yield f"{field}-ragged", field, ragged
    yield "D-not-blocks", "D", md.D[:-1, :-1]
    yield "L_reduced-not-square", "L_reduced", md.L_reduced[:, :1]
    yield "L_reduced-empty", "L_reduced", np.zeros((0, 0))
    yield "D-one-block", "D", md.D[: md.n, : md.n]
    yield "E-rows", "E", md.E[:, :-1]
    yield "E-2d", "E", md.E[0]
    yield "E-three-terms", "E", np.concatenate([md.E, md.E[:1]])
    yield "n-zero", "n", 0
    yield "n-float", "n", 1.5
    yield "n-text", "n", "3"
    yield "n-bool", "n", True
    yield "rho-text", "rho", "4"
    yield "rho-nan", "rho", np.nan
    yield "rho-inf", "rho", np.inf


MODE_ROWS = list(_mode_rows(MODES))


class TestModeData:
    """A `ModeData` with non-finite, complex or misshapen arrays, fewer
    than two blocks, other than one or two input terms, an n that is not
    an integer or a rho that is not a finite real number is refused when
    it is built, so `error_h2` never sees it."""

    @pytest.mark.parametrize("field, bad", [r[1:] for r in MODE_ROWS],
                             ids=[r[0] for r in MODE_ROWS])
    def test_refused(self, field, bad):
        with pytest.raises(DimensionMismatch):
            _quietly(lambda: error_h2(dataclasses.replace(MODES, **{field: bad})))

    # error_h2 takes a ModeData or a ClosedLoop and nothing else
    @pytest.mark.parametrize("loop", [None, MODES.dense()[0], MODES.dense()],
                             ids=["none", "array", "tuple"])
    def test_error_h2_of_another_type(self, loop):
        with pytest.raises(DimensionMismatch, match="ModeData or a ClosedLoop"):
            _quietly(error_h2, loop)


class TestSeedsAndSignals:
    @staticmethod
    def config():
        model = AgentModel.full_state([[0.0]], [[1.0]], [[1.0]])
        graph = CommGraph(np.array([[0.0, 0.0], [1.0, 0.0]]))
        return SimConfig(model=model, graph=graph, protocol=synthesize_p1(model, 2.0),
                         t_final=1.0, dt=1e-2, noise="white")

    # a field assigned after the config is made would skip its check
    @pytest.mark.parametrize("field, value", [("noise", "pink"),
                                              ("initial_conditions", np.zeros((5, 5)))],
                             ids=["noise", "initial_conditions"])
    def test_sim_config_field_not_reassigned(self, field, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.config(), field, value)

    def test_sim_config_replace_is_checked(self):
        with pytest.raises(ConfigInvalid, match="noise must be"):
            _quietly(lambda cfg: dataclasses.replace(cfg, noise="pink"), self.config())

    @pytest.mark.parametrize("seeds", [[], [-1], [0.5]])
    def test_monte_carlo_rms(self, seeds):
        with pytest.raises(ConfigInvalid):
            _quietly(monte_carlo_rms, self.config(), seeds)

    @pytest.mark.parametrize("seeds", [[], [-1]])
    def test_white_noise_rms(self, seeds):
        with pytest.raises(ConfigInvalid):
            _quietly(white_noise_rms, GOOD["A"], GOOD["B"], GOOD["C"], 0.01, 2.0, seeds)

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_consistency_without_seeds(self, n_seeds):
        with pytest.raises(ConfigInvalid):
            _quietly(rms_vs_h2_consistency, self.config(), n_seeds)

    @pytest.mark.parametrize("n_seeds", [2.5, "3", None])
    def test_consistency_seed_count_not_an_integer(self, n_seeds):
        with pytest.raises(ConfigInvalid, match="n_seeds"):
            _quietly(rms_vs_h2_consistency, self.config(), n_seeds)

    @pytest.mark.parametrize("ic", [[[np.nan], [0.0]], [[np.inf], [0.0]], [[1.0], [-np.inf]],
                                    [["a"], [0.0]], [[1j], [0.0]], [[1.0], [2.0], [3.0]]],
                             ids=["nan", "inf", "minus-inf", "text", "complex", "shape"])
    def test_initial_conditions_refused_up_front(self, ic):
        # refused when the config is made, before any step is integrated
        cfg = self.config()
        with pytest.raises(ConfigInvalid, match="initial_conditions"):
            _quietly(lambda: dataclasses.replace(cfg, initial_conditions=ic))

    def test_initial_conditions_accepted(self):
        cfg = self.config()
        cfg = _quietly(lambda: dataclasses.replace(cfg, initial_conditions=[[1], [-1]]))
        assert cfg.initial_conditions.dtype == float

    def test_simulate_too_long_to_hold(self):
        # case 2 over 1e4 s at dt = 1e-3 would keep about 5 GB of states:
        # refused with the estimate before anything that size is allocated
        model = triple_integrator()
        cfg = SimConfig(model=model, graph=case2_graph(),
                        protocol=synthesize_p2(model, 4.0, delta_hint=CASE_DELTA),
                        t_final=1e4, dt=1e-3, noise="white")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid, match=r"4960000496 bytes.*trajectory_blocks"):
                _quietly(simulate, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("signal", [[], np.zeros((0, 3))])
    def test_rms_of_empty_signal(self, signal):
        with pytest.raises(ConfigInvalid):
            _quietly(rms, signal)

    @pytest.mark.parametrize("signal", [[[1.0], [2.0, 3.0]], ["a", "b"], [3j, 3j], [None, 1.0]],
                             ids=["ragged", "text", "complex", "none"])
    def test_rms_of_non_real_signal(self, signal):
        with pytest.raises(ConfigInvalid):
            _quietly(rms, signal)

    # a third axis would be averaged as if it were time
    @pytest.mark.parametrize("signal", [np.ones((4, 2, 2)), np.ones((4, 1, 1, 1))],
                             ids=["3-axes", "4-axes"])
    def test_rms_of_signal_with_more_than_two_axes(self, signal):
        with pytest.raises(ConfigInvalid, match=r"\(T, k\)"):
            _quietly(rms, signal)

    @pytest.mark.parametrize("field, bad, expected", [
        ("model", np.eye(3), "AgentModel, got ndarray"),
        ("graph", np.zeros((3, 3)), "CommGraph, got ndarray"),
        ("protocol", None, "ProtocolRealization, got NoneType")],
        ids=["model", "graph", "protocol"])
    def test_sim_config_field_of_another_type(self, field, bad, expected):
        # refused when the config is made, not by the first run that reads
        # it, by the one type gate every other argument goes through
        fields = dict(model=triple_integrator(), graph=case1_graph(), t_final=1.0,
                      protocol=synthesize_p2(triple_integrator(), 4.0, delta_hint=CASE_DELTA))
        with pytest.raises(DimensionMismatch, match=f"^expected an? {expected}$"):
            _quietly(lambda: SimConfig(**{**fields, field: bad}))

    @pytest.mark.parametrize("run, match", [
        (lambda cfg: dataclasses.replace(cfg, dt="0.001"), "real number"),
        (lambda cfg: dataclasses.replace(cfg, t_final=None), "real number"),
        (lambda cfg: white_noise_rms(-1.0, 1.0, 1.0, 1e-3, "1", [0]), "real number"),
        # a step count t_final / dt too large for a float
        (lambda cfg: dataclasses.replace(cfg, t_final=1e308), "overflows"),
        (lambda cfg: dataclasses.replace(cfg, t_final=10 ** 400), "overflows"),
        (lambda cfg: white_noise_rms(-1, 1, 1, 5e-324, 1.0, [1]), "overflows"),
        # a step count whose sync errors alone, 8 bytes a step, pass the memory cap
        (lambda cfg: dataclasses.replace(cfg, t_final=1e300), "bytes of sync error"),
        (lambda cfg: dataclasses.replace(cfg, dt=1e-300), "bytes of sync error"),
    ], ids=["SimConfig-dt-text", "SimConfig-t_final-None", "white_noise_rms-t_final-text",
            "SimConfig-t_final-overflow", "SimConfig-t_final-huge-int",
            "white_noise_rms-dt-overflow", "SimConfig-t_final-too-long",
            "SimConfig-dt-too-fine"])
    def test_time_grid_not_a_number(self, run, match):
        cfg = self.config()
        with pytest.raises(ConfigInvalid, match=match):
            _quietly(run, cfg)


class TestNoInputOrOutput:
    """A map with no input (w = 0) or no output (p = 0) is zero."""

    @pytest.mark.parametrize("B, C", [(np.zeros((2, 0)), GOOD["C"]),
                                      (GOOD["B"], np.zeros((0, 2)))],
                             ids=["w0", "p0"])
    def test_norms_are_zero(self, B, C):
        assert _quietly(hinf_norm, GOOD["A"], B, C) == 0.0
        assert _quietly(h2_norm, GOOD["A"], B, C) == 0.0


@pytest.mark.parametrize("parse", [parse_model, parse_graph, parse_realization],
                         ids=lambda parse: parse.__name__)
def test_file_text_of_another_type(parse):
    with pytest.raises(ParseError, match="must be a str"):
        _quietly(parse, b"2\n1 2 1\n")


class TestGraphInputs:
    def test_header_too_large_to_hold(self):
        # numpy refuses 1e12 x 1e12 before allocating anything
        with pytest.raises(ParseError, match="line 1"):
            _quietly(parse_graph, "1000000000000\n1 2 1\n")

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, "x", None])
    def test_spectrum_tol_refused(self, tol):
        with pytest.raises(DimensionMismatch, match="tol"):
            _quietly(reduced_spectrum_check, laplacian(case1_graph()), tol)

    @pytest.mark.parametrize("call", [
        laplacian, has_spanning_tree,
        lambda g: full_report(triple_integrator(), g),
        lambda g: design(triple_integrator(), "p2", g),
    ], ids=["laplacian", "has_spanning_tree", "full_report", "design"])
    @pytest.mark.parametrize("g", [np.zeros((3, 3)), [[0.0, 1.0], [1.0, 0.0]]],
                             ids=["array", "nested-list"])
    def test_graph_of_another_type(self, call, g):
        with pytest.raises(DimensionMismatch, match="CommGraph"):
            _quietly(call, g)


class TestCli:
    """Each file is an input error: exit 2 and one stderr line."""

    GRAPH = "3\n2 1 1\n3 2 1\n"
    MODEL = "1 1 1 1\n-1\n1\n1\n1\n"

    def run(self, tmp_path, capsys, argv, model=MODEL, graph=GRAPH):
        (tmp_path / "m.txt").write_text(model)
        (tmp_path / "g.txt").write_text(graph)
        files = {"--model": str(tmp_path / "m.txt"), "--graph": str(tmp_path / "g.txt"),
                 "--out": str(tmp_path / "out")}
        code = main([x for a in argv for x in ((a, files[a]) if a in files else (a,))])
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("argv", [
        ["check", "--model", "--graph", "--out"],
        ["synth", "--model", "--protocol", "p1", "--rho", "2", "--out"],
        ["analyze", "--model", "--graph", "--protocol", "p1", "--rho", "2", "--out"],
    ], ids=["check", "synth", "analyze"])
    def test_empty_model(self, tmp_path, capsys, argv):
        code, err = self.run(tmp_path, capsys, argv, model="0 0 0 0\n")
        assert code == 2 and len(err) == 1 and err[0].startswith("input error:")

    def test_graph_too_large_to_hold(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, ["check", "--model", "--graph", "--out"],
                             graph="1000000000000\n1 2 1\n")
        assert code == 2 and len(err) == 1 and err[0].startswith("input error:")
