"""Every RMS of `h2sync.sim` averages one window, the second half of its
run; `white_noise_rms` steps with RK4, as every caller of it does; and a
`SimResult` keeps no copy of the config that made it.  These fail if a
`tail_fraction` option, an `integrator` parameter of `white_noise_rms`
or a `metadata` field of `SimResult` comes back."""

import dataclasses
import inspect

from h2sync import sim


def public_callables():
    """(name, object) of the functions and classes `h2sync.sim` exports,
    and of the methods of those classes."""
    for name in sim.__all__:
        obj = getattr(sim, name)
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_tail_fraction():
    offenders = []
    for name, obj in public_callables():
        if inspect.isfunction(obj) and "tail_fraction" in inspect.signature(obj).parameters:
            offenders.append(f"{name}()")
        if dataclasses.is_dataclass(obj) and "tail_fraction" in {f.name for f in dataclasses.fields(obj)}:
            offenders.append(f"{name}.tail_fraction")
    assert not offenders, f"h2sync.sim takes a tail_fraction option: {', '.join(offenders)}"


def test_guard_sees_the_config_and_the_rms_functions():
    names = dict(public_callables())
    assert {"SimConfig", "rms", "simulate", "monte_carlo_rms", "white_noise_rms"} <= set(names)
    assert "integrator" in {f.name for f in dataclasses.fields(sim.SimConfig)}


def test_white_noise_rms_takes_no_integrator():
    assert "integrator" not in inspect.signature(sim.white_noise_rms).parameters


def test_sim_result_keeps_no_metadata():
    assert "metadata" not in {f.name for f in dataclasses.fields(sim.SimResult)}
