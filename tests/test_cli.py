import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import clear_synthesis_memos

import h2sync.cli as cli
import h2sync.protocol as protocol
import h2sync.sim as sim
from h2sync.cases import (
    CASE_DELTA,
    CASE_RHOS,
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from h2sync.cli import main
from h2sync.closedloop import rho_scaling_probe
from h2sync.conditions import model_to_text
from h2sync.errors import DeltaSearchExhausted, Diverged, RhoOutOfRange
from h2sync.graph import graph_to_text
from h2sync.protocol import parse_realization, synthesize_p2


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def ref_files(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(model_to_text(triple_integrator()))
    graph = tmp_path / "graph.txt"
    graph.write_text(graph_to_text(case1_graph()))
    return str(model), str(graph), tmp_path


class TestCheck:
    def test_reference_passes(self, ref_files, capsys):
        model, graph, tmp = ref_files
        code = main(["check", "--model", model, "--graph", graph,
                     "--out", str(tmp / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall=true" in out
        assert (tmp / "out" / "report.txt").read_text() == out

    def test_unstable_model_names_condition_b(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("1 1 1 1\n1\n1\n1\n1\n")
        graph = tmp_path / "g.txt"
        graph.write_text("2\n2 1 1\n")
        code = main(["check", "--model", str(model), "--graph", str(graph),
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "clhp_eigs=false" in captured.out
        assert "(b)" in captured.err

    def test_malformed_graph_exits_2(self, tmp_path, ref_files):
        model, _, _ = ref_files
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 2\n")
        assert main(["check", "--model", model, "--graph", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check", "--model", str(tmp_path / "nope.txt"),
                     "--graph", str(tmp_path / "also_nope.txt"),
                     "--out", str(tmp_path)]) == 2


class TestSynth:
    def test_writes_realization(self, ref_files):
        model, _, tmp = ref_files
        out = tmp / "synth"
        code = main(["synth", "--model", model, "--protocol", "p2",
                     "--rho", "4,6", "--delta", "0.0004", "--out", str(out)])
        assert code == 0
        real = parse_realization((out / "protocol_p2_rho4.txt").read_text())
        assert real.rho == 4.0 and real.delta == 0.0004
        assert (out / "protocol_p2_rho6.txt").exists()
        assert (out / "run_config.txt").exists()

    def test_infeasible_delta_exits_3(self, ref_files):
        model, _, tmp = ref_files
        assert main(["synth", "--model", model, "--protocol", "p2",
                     "--rho", "4", "--delta", "0.5", "--out", str(tmp)]) == 3

    def test_refused_delta_is_described_once(self, ref_files, capsys):
        model, _, tmp = ref_files
        code = main(["synth", "--model", model, "--protocol", "p2",
                     "--rho", "4", "--delta", "5", "--out", str(tmp)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: filter Riccati failed at the given delta=5.0: "
            "Hamiltonian has 2 eigenvalues on the imaginary axis\n")

    def test_refused_small_delta_named_once(self, ref_files, capsys):
        model, _, tmp = ref_files
        code = main(["synth", "--model", model, "--protocol", "p2",
                     "--rho", "4", "--delta", "0.01", "--out", str(tmp)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3 and len(err) == 1 and err[0].count("delta=") == 1

    def test_rho_below_one_rejected_by_parser(self, ref_files):
        model, _, tmp = ref_files
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--model", model, "--protocol", "p2",
                  "--rho", "0.5", "--out", str(tmp)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("rhos, first, second", [
        ("4.0000001,4.0000002", "4.0000001", "4.0000002"),
        ("4,6,4", "4.0", "4.0"),
    ])
    def test_rho_values_that_print_alike_rejected(self, rhos, first, second,
                                                  ref_files, capsys):
        # each rho writes protocol_p2_rho{rho:g}.txt: one would be lost
        model, _, tmp = ref_files
        out = tmp / "o"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--model", model, "--protocol", "p2", "--rho", rhos,
                  "--delta", "0.0004", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"rho values {first} and {second}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "synth", "analyze", "simulate"])
    def test_p1_requires_identity_c(self, command, ref_files, capsys):
        # the reference model has C = [1 0 0], so forcing p1 is an input
        # error, refused before any output is written
        model, graph, tmp = ref_files
        args = [] if command == "synth" else ["--graph", graph]
        args += [] if command == "check" else ["--rho", "4"]
        out = tmp / "out"
        assert main([command, "--model", model, "--protocol", "p1",
                     *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "input error: full-state coupling requires C = I\n"
        assert not out.exists()

    def test_p1_round_trip(self, tmp_path):
        from h2sync.cases import triple_integrator_full_state
        model = tmp_path / "fs.txt"
        model.write_text(model_to_text(triple_integrator_full_state()))
        out = tmp_path / "p1"
        assert main(["synth", "--model", str(model), "--protocol", "p1",
                     "--rho", "4", "--out", str(out)]) == 0
        real = parse_realization((out / "protocol_p1_rho4.txt").read_text())
        assert real.kind == "p1" and real.delta is None and real.Q_rho is None


class TestAnalyze:
    def test_case1_decreasing_h2(self, ref_files, capsys):
        model, graph, tmp = ref_files
        out = tmp / "an"
        code = main(["analyze", "--model", model, "--graph", graph,
                     "--protocol", "p2", "--rho", "4,6,10",
                     "--delta", "0.0004", "--out", str(out)])
        assert code == 0
        lines = (out / "analysis.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,h2,rho_times_h2,spectral_abscissa"
        h2s = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(h2s) == 3
        assert h2s[0] > h2s[1] > h2s[2]

    def test_non_spanning_tree_refused(self, tmp_path, ref_files, capsys):
        model, _, _ = ref_files
        graph = tmp_path / "disc.txt"
        graph.write_text("4\n2 1 1\n4 3 1\n")
        code = main(["analyze", "--model", model, "--graph", str(graph),
                     "--protocol", "p2", "--rho", "4", "--out", str(tmp_path)])
        assert code == 1
        assert "(d)" in capsys.readouterr().err


class TestSimulate:
    def test_writes_trajectories_and_summary(self, ref_files):
        model, graph, tmp = ref_files
        out = tmp / "sim"
        code = main(["simulate", "--model", model, "--graph", graph,
                     "--protocol", "p2", "--rho", "4", "--delta", "0.0004",
                     "--t-final", "1.0", "--dt", "0.01", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        traj = (out / "trajectory_custom_rho4.csv").read_text().splitlines()
        header = traj[0].split(",")
        assert header[0] == "t" and header[-1] == "sync_error"
        assert len(header) == 1 + 3 * 3 + 1
        assert len(traj) == 1 + 101
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "case,rho,delta,seed,rms_sync_error"
        assert summary[1].startswith("custom,4,0.0004,5,")


    def test_unstable_step_exits_3(self, ref_files, capsys):
        # the complete 3-agent digraph of weight 23.22: at dt = 1e-2 RK4
        # grows its fastest difference mode by 1.00167 a step
        model, _, tmp = ref_files
        graph = tmp / "complete.txt"
        graph.write_text("3\n" + "".join(f"{i} {j} 23.22\n" for i in (1, 2, 3)
                                         for j in (1, 2, 3) if i != j))
        out = tmp / "sim"
        code = main(["simulate", "--model", model, "--graph", str(graph),
                     "--protocol", "p2", "--rho", "4", "--delta", "0.0004",
                     "--t-final", "50", "--dt", "0.01", "--noise", "white",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the rk4 step dt=0.01 grows a mode")
        assert "dt / 2^1 = 0.005" in err
        assert not list(out.glob("*.csv"))

    def test_rho_values_that_print_alike_rejected(self, ref_files, capsys):
        # both would write trajectory_custom_rho4.csv and a summary row `4`
        model, graph, tmp = ref_files
        out = tmp / "sim"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", model, "--graph", graph,
                  "--protocol", "p2", "--rho", "4.0000001,4.0000002", "--delta", "0.0004",
                  "--t-final", "1.0", "--dt", "0.01", "--out", str(out)])
        assert exc.value.code == 2
        assert "rho values 4.0000001 and 4.0000002" in capsys.readouterr().err
        assert not out.exists()


class TestReproduce:
    def test_case1_bundle(self, tmp_path, capsys):
        out = tmp_path / "case1"
        # rho=10 with the reference delta has a filter pole near -600, so a
        # coarse step needs the exact integrator
        code = main(["reproduce-case1", "--t-final", "1.0", "--dt", "0.01",
                     "--integrator", "zoh", "--out", str(out)])
        assert code == 0
        for rho in (4, 6, 10):
            assert (out / f"trajectory_case1_rho{rho}.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 4
        assert all(ln.startswith("case1,") for ln in summary[1:])

    def test_case2_bundle(self, tmp_path):
        out = tmp_path / "case2"
        code = main(["reproduce-case2", "--t-final", "1.0", "--dt", "0.01",
                     "--integrator", "zoh", "--out", str(out)])
        assert code == 0
        traj = (out / "trajectory_case2_rho4.csv").read_text().splitlines()
        assert len(traj[0].split(",")) == 1 + 20 * 3 + 1


def fstring_trajectory_csv(t, states, sync):
    """Reference formatter: one f-string per value, header included."""
    N, n = states.shape[1:]
    cols = ["t"]
    for i in range(1, N + 1):
        cols.extend(f"x_{i}[{k}]" for k in range(1, n + 1))
    cols.append("sync_error")
    lines = [",".join(cols)]
    flat = states.reshape(states.shape[0], -1)
    for row_t, row_x, se in zip(t, flat, sync):
        vals = [f"{row_t:.10g}"] + [f"{v:.10g}" for v in row_x] + [f"{se:.10g}"]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


class TestTrajectoryFormat:
    @pytest.mark.parametrize("N", [2, 20])
    @pytest.mark.parametrize("n", [3, 9])
    def test_matches_fstring_formatter(self, N, n):
        rng = np.random.default_rng(N * 10 + n)
        T = 40
        states = rng.standard_normal((T, N, n)) * 10.0 ** rng.integers(-320, 300, (T, N, n))
        special = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan]
        for value in special:
            states.reshape(-1)[rng.choice(states.size, size=5, replace=False)] = value
        t = np.arange(T) * 1e-3
        sync = np.abs(rng.standard_normal(T))
        sync[:len(special)] = special
        expect = fstring_trajectory_csv(t, states, sync)
        assert expect.split("\n", 1)[1] == cli._trajectory_csv(t, states, sync)


class TestReproduceOutputs:
    """Streamed reproduce files equal the reference formatter applied to
    simulate() with the same configuration, over many blocks."""

    @pytest.mark.parametrize("cores", ["one", "usable"])
    @pytest.mark.parametrize("which,graph", [(1, case1_graph), (2, case2_graph)])
    def test_files_match_simulate(self, which, graph, cores, tmp_path, monkeypatch, capsys):
        # on one core the runs stay in process; otherwise they go to a pool
        if cores == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        workers = min(len(CASE_RHOS), len(os.sched_getaffinity(0)))
        threads, forks = threading.active_count(), []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(threading.active_count()) or fork())
        monkeypatch.setattr(sim, "_BLOCK_BYTES", 4096)
        out = tmp_path / f"case{which}"
        t_final, dt, seed = 0.3, 1e-3, 12
        code = main([f"reproduce-case{which}", "--noise", "white", "--seed", str(seed),
                     "--t-final", str(t_final), "--dt", str(dt), "--out", str(out)])
        assert code == 0
        # every worker is forked before the pool starts a thread of its own
        assert forks == ([threads] * workers if workers > 1 else [])
        model = triple_integrator()
        summary = ["case,rho,delta,seed,rms_sync_error"]
        for rho in CASE_RHOS:
            real = synthesize_p2(model, rho, delta_hint=CASE_DELTA)
            cfg = sim.SimConfig(model=model, graph=graph(), protocol=real, t_final=t_final,
                                dt=dt, noise="white", seed=seed)
            assert cfg.steps + 1 > 2 * 4096 // (8 * cfg.graph.n_agents * model.n)
            res = sim.simulate(cfg)
            text = (out / f"trajectory_case{which}_rho{rho:g}.csv").read_text()
            assert text == fstring_trajectory_csv(res.t, res.states, res.sync_error)
            summary.append(f"case{which},{rho:g},{real.delta:.10g},{seed},"
                           f"{res.rms_sync_error:.10g}")
        assert (out / "summary.csv").read_text() == "\n".join(summary) + "\n"

    def test_failed_run_leaves_no_trajectory(self, tmp_path, monkeypatch):
        def diverging(cfg):
            yield 0, np.zeros((1, cfg.graph.n_agents, cfg.model.n))
            raise Diverged("state norm exceeded 1e+12 by t=0.100")

        monkeypatch.setattr(cli, "trajectory_blocks", diverging)
        out = tmp_path / "case1"
        assert main(["reproduce-case1", "--t-final", "1.0", "--dt", "0.01",
                     "--out", str(out)]) == 3
        assert not list(out.glob("trajectory_*.csv"))


class TestRhoOrder:
    """`reproduce` and `simulate` run their rho values in forked workers
    when more than one core is usable.  What they print, write and
    report is what a serial loop over the rho values gives, and nothing
    they start outlives `main`.  The workers are forked after the
    monkeypatches here, so they run the patched functions."""

    ARGV = ["reproduce-case1", "--t-final", "0.1", "--dt", "0.001"]

    @staticmethod
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    @pytest.fixture(params=["one", "usable"])
    def run(self, request, tmp_path, capsys, monkeypatch):
        """Run `main` on `argv`, on one core (in process) or on the usable
        ones, and check that no file descriptor, thread or process
        outlives it and that no fork was warned about."""
        if request.param == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def run(argv):
            out = tmp_path / "out"
            threads, fds = threading.active_count(), self.open_fds()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv + ["--out", str(out)])
            assert self.open_fds() == fds
            assert threading.active_count() == threads
            assert multiprocessing.active_children() == []
            assert not [w for w in caught if issubclass(w.category, DeprecationWarning)
                        and "fork" in str(w.message)]
            captured = capsys.readouterr()
            files = sorted(p.name for p in out.iterdir())
            return code, captured.out, captured.err, files
        return run

    def test_success_prints_rho_order(self, run):
        code, out, err, files = run(["reproduce-case2", *self.ARGV[1:]])
        assert code == 0 and err == ""
        assert [ln.split(":")[0] for ln in out.splitlines()] == ["rho=4", "rho=6", "rho=10"]
        assert files == ["run_config.txt", "summary.csv", *(
            f"trajectory_case2_rho{rho}.csv" for rho in (10, 4, 6))]

    def test_divergence_in_middle_rho(self, run, monkeypatch):
        def diverging_at_6(cfg):
            if cfg.protocol.rho != 6:
                yield from sim.trajectory_blocks(cfg)
                return
            yield 0, np.zeros((1, cfg.graph.n_agents, cfg.model.n))
            raise Diverged("state norm exceeded 1e+12 by t=0.100")

        monkeypatch.setattr(cli, "trajectory_blocks", diverging_at_6)
        code, out, err, files = run(self.ARGV)
        assert code == 3
        assert err == "numerical failure: state norm exceeded 1e+12 by t=0.100\n"
        assert files == ["run_config.txt", "trajectory_case1_rho4.csv"]
        assert [ln.split(":")[0] for ln in out.splitlines()] == ["rho=4"]

    def test_realize_failure_at_last_rho(self, run, monkeypatch):
        realize = protocol.ProtocolDesign.realize

        def exhausted_at_10(self, rho, delta=None):
            if rho == 10:
                raise DeltaSearchExhausted("no feasible delta found for rho=10")
            return realize(self, rho, delta)

        monkeypatch.setattr(protocol.ProtocolDesign, "realize", exhausted_at_10)
        code, out, err, files = run(self.ARGV)
        assert code == 3
        assert err == "numerical failure: no feasible delta found for rho=10\n"
        assert files == ["run_config.txt", "trajectory_case1_rho4.csv",
                         "trajectory_case1_rho6.csv"]
        assert [ln.split(":")[0] for ln in out.splitlines()] == ["rho=4", "rho=6"]

    def test_realize_failure_at_middle_rho(self, run, monkeypatch):
        # on two cores the rho=10 run may already be running in a worker
        # when rho=6 fails; its file goes too
        realize = protocol.ProtocolDesign.realize

        def exhausted_at_6(self, rho, delta=None):
            if rho == 6:
                raise DeltaSearchExhausted("no feasible delta found for rho=6")
            return realize(self, rho, delta)

        monkeypatch.setattr(protocol.ProtocolDesign, "realize", exhausted_at_6)
        code, out, err, files = run(self.ARGV)
        assert code == 3
        assert err == "numerical failure: no feasible delta found for rho=6\n"
        assert files == ["run_config.txt", "trajectory_case1_rho4.csv"]
        assert [ln.split(":")[0] for ln in out.splitlines()] == ["rho=4"]

    @pytest.mark.parametrize("run", ["usable"], indirect=True)
    def test_lost_worker_names_its_rho(self, run, monkeypatch):
        # a worker killed mid-run cannot remove its file; the parent does
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable core: the runs stay in process")

        test_process = os.getpid()

        def killed_at_4(cfg):
            if cfg.protocol.rho != 4:
                yield from sim.trajectory_blocks(cfg)
                return
            yield 0, np.zeros((1, cfg.graph.n_agents, cfg.model.n))
            if os.getpid() == test_process:
                raise AssertionError("the rho=4 run was not in a worker")
            os._exit(1)

        monkeypatch.setattr(cli, "trajectory_blocks", killed_at_4)
        code, out, err, files = run(self.ARGV)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: the run for rho=4 was lost: ")
        assert err.count("\n") == 1
        assert files == ["run_config.txt"]


class TestNonFiniteTime:
    """A time grid no run can use is an input error: a step or horizon
    that is not finite, or a step count t_final / dt that overflows or
    whose sync errors would not fit in memory (the default t_final is 50
    and the default dt 1e-3)."""

    @pytest.mark.parametrize("flag", ["--dt", "--t-final"])
    @pytest.mark.parametrize("value", ["nan", "inf", "5e-324", "1e308", "1e-300", "1e300"])
    def test_exit_2(self, flag, value, tmp_path, capsys):
        code = main(["reproduce-case1", flag, value, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "analyze", "simulate"])
def test_delta_refused_with_p1(command, ref_files, capsys):
    # p1 has no delta: refused as a bad --rho list is, before any output
    model, graph, tmp = ref_files
    out = tmp / "o"
    argv = [command, "--model", model, "--protocol", "p1", "--rho", "4",
            "--delta", "0.0004", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv if command == "synth" else argv + ["--graph", graph])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--delta" in err.splitlines()[-1]
    assert not out.exists()


def test_import_loads_no_process_pool():
    # the pool's modules load only when a run uses the pool, and
    # scipy.sparse only when reduced_spectrum_check runs: neither the
    # import nor the graph gate of full_report and design loads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    code = ("import sys, h2sync.cli\n"
            "from h2sync import case1_graph, case2_graph, design, full_report, "
            "triple_integrator\n"
            "full_report(triple_integrator(), case2_graph())\n"
            "design(triple_integrator(), 'p2', case1_graph())\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures.process', "
            "'scipy.sparse') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout == "[]\n"


class TestNonFiniteSynthesisParameters:
    @pytest.mark.parametrize("flag", ["--rho", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_exit_2(self, flag, value, ref_files, capsys):
        model, _, tmp = ref_files
        argv = ["synth", "--model", model, "--protocol", "p2", "--out", str(tmp / "o"),
                "--rho", value if flag == "--rho" else "4"]
        if flag == "--delta":
            argv += ["--delta", value]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad --rho list
            code = exc.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestSolvabilityGate:
    @pytest.mark.parametrize("command", ["check", "analyze", "simulate"])
    def test_p2_letters_on_full_state_model(self, command, tmp_path, capsys):
        # C = I model, graph without a spanning tree: under --protocol p2
        # the partial-state letters apply, so the tree condition is (d)
        model = tmp_path / "m.txt"
        model.write_text(model_to_text(triple_integrator_full_state()))
        graph = tmp_path / "g.txt"
        graph.write_text("4\n2 1 1\n4 3 1\n")
        argv = [command, "--model", str(model), "--graph", str(graph),
                "--protocol", "p2", "--out", str(tmp_path / "out")]
        if command != "check":
            argv += ["--rho", "4"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("solvability error:")
        assert "(d) spanning_tree" in err and "(c)" not in err


class TestOneDesignPerRhoList:
    """A rho list takes the solvability report and the control CARE once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # a CARE remembered from an earlier test would be solved 0 times
        clear_synthesis_memos()
        calls = {"full_report": 0, "solve_care_standard": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(protocol, "full_report")
        count(cli, "full_report")
        count(protocol, "solve_care_standard")
        return calls

    @pytest.mark.parametrize("command", [
        ["synth", "--protocol", "p2", "--rho", "1,2,4"],
        ["analyze", "--graph", "G", "--protocol", "p2", "--rho", "4,6,10",
         "--delta", "0.0004"],
        ["simulate", "--graph", "G", "--protocol", "p2", "--rho", "4,6,10",
         "--delta", "0.0004", "--t-final", "0.1"],
        ["reproduce-case1", "--t-final", "0.1"],
    ], ids=lambda argv: argv[0])
    def test_cli(self, command, ref_files, calls, capsys):
        model, graph, tmp = ref_files
        argv = [graph if a == "G" else a for a in command] + ["--out", str(tmp / "out")]
        if command[0] != "reproduce-case1":
            argv += ["--model", model]
        assert main(argv) == 0
        assert calls == {"full_report": 1, "solve_care_standard": 1}

    def test_rho_scaling_probe(self, calls):
        rho_scaling_probe(triple_integrator(), case1_graph(), "p2", [4.0, 6.0, 10.0],
                          delta=CASE_DELTA)
        assert calls == {"full_report": 1, "solve_care_standard": 1}


class TestBoundary:
    def test_directory_as_model_exits_2(self, tmp_path, ref_files, capsys):
        _, graph, _ = ref_files
        code = main(["check", "--model", str(tmp_path), "--graph", graph,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err

    def test_unexpected_exception_exits_3(self, ref_files, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("first\nsecond")

        monkeypatch.setattr(cli, "full_report", broken)
        model, graph, tmp = ref_files
        code = main(["check", "--model", model, "--graph", graph,
                     "--out", str(tmp / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("unexpected error: RuntimeError")
        assert err.count("\n") == 1

    def test_rho_out_of_range_exits_2(self, ref_files, monkeypatch, capsys):
        # exit 1 is a failed solvability condition and nothing else; a rho
        # below 1 is an input, as `--rho` already reports it
        def refused(*args, **kwargs):
            raise RhoOutOfRange("rho must be finite and >= 1, got 0.5")

        monkeypatch.setattr(cli, "design", refused)
        model, _, tmp = ref_files
        code = main(["synth", "--model", model, "--protocol", "p2", "--rho", "4",
                     "--out", str(tmp / "out")])
        assert code == 2
        assert capsys.readouterr().err == "input error: rho must be finite and >= 1, got 0.5\n"


class TestOneStderrLine:
    """A numerical failure is reported by its typed error alone: no numpy
    or scipy warning reaches stderr ahead of it.  Run in a fresh process
    with the default warning filters, as a user runs the CLI."""

    @pytest.mark.parametrize("argv, line", [
        # RK4 at dt = 0.05 grows a mode of this loop: refused before the
        # first step (the guard's overflow inside a block, which no model
        # the CLI admits reaches, is `TestDivergenceGuard`'s in test_sim)
        (["simulate", "--protocol", "p2", "--rho", "10", "--delta", "0.0004",
          "--dt", "0.05", "--t-final", "20"], "numerical failure: the rk4 step dt=0.05 grows"),
        # the delta search meets Lyapunov equations scipy would perturb
        (["synth", "--protocol", "p2", "--rho", "256"],
         "numerical failure: no feasible delta found"),
        # rho**2 and delta**2 beyond the float range, or delta**2 rounding to 0
        (["synth", "--protocol", "p2", "--rho", "1e300"],
         "numerical failure: no feasible delta found"),
        (["synth", "--protocol", "p2", "--rho", "4", "--delta", "1e-300"],
         "numerical failure: filter Riccati failed at the given delta=1e-300: "
         "Hamiltonian has a non-finite entry"),
    ], ids=["simulate", "synth", "synth-rho-overflow", "synth-delta-underflow"])
    def test_exit_3_with_one_line(self, ref_files, argv, line):
        model, graph, tmp = ref_files
        if argv[0] == "simulate":
            argv = argv + ["--graph", graph]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "h2sync.cli", *argv, "--model", model,
             "--out", str(tmp / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith(line) and proc.stderr.count("\n") == 1
