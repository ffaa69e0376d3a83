"""Time-domain simulation of the stacked network under white-noise
disturbances, and RMS statistics.

Integrators: classical RK4 (default) and exact zero-order-hold
discretization via the matrix exponential.  Both treat the disturbance
as held constant over each step with per-sample standard deviation
sqrt(1/dt) -- the band-limited approximation of unit-PSD white noise,
under which the stationary RMS of the synchronization error approaches
the H2 norm of the disturbance-to-error map as dt -> 0.

For linear dynamics with held inputs the RK4 step collapses to the
affine map z+ = M z + K w with M the fourth-order Taylor polynomial of
expm(A dt); the ZOH step uses the exact exponential.  A single
simulation is bit-reproducible from (config, seed).

Every path runs that map in one kernel, `_propagate`, which fills
blocks of full loop states, at most _BLOCK_BYTES each, in place: the
block starts as K w from one batched product over its steps, and each
step adds M z to its row.  It yields the agent rows of each block and
owns the divergence guard.  `simulate` collects the blocks;
`trajectory_blocks` hands them on, so the CLI writes trajectories in
O(block + steps) memory; the Monte-Carlo helpers reduce each block to
square sums and add them to a running sum with np.add.accumulate, one
step at a time, so that no result depends on where blocks end.
Before the first step, every run checks that its step decays each
mode (`_require_stable_step`): for a `SimConfig` the spectrum of the
error-form loop that `modal_h2` reads off, for `white_noise_rms` the
eigenvalues of its A.  It raises Diverged when one grows: a slowly
growing run could stay under the guard and report a wrong RMS.
`simulate` refuses a run whose trajectory would pass
_SIMULATE_MAX_BYTES; such runs stream.  A `SimConfig` whose series of
sync errors alone, 8 bytes a step, would pass it is refused when it is
made.

Every RMS here averages the second half of its run, the last ceil(T/2)
of T samples: of t_0, ..., t_steps for `simulate` and the CLI's
summary.csv, of t_1, ..., t_steps for the Monte-Carlo paths.

The max-pair synchronization error of every path comes from one
reduction, `_max_pair_sq`, which works agent by agent with in-place
ufuncs over one chunk-sized buffer.  Its results are bit-identical to
summing the gathered pair differences with numpy: floating-point sums
depend on their order, so the component sum is left to numpy itself
wherever numpy's order is not a plain sequence (a single run of 8 or
more components, which it sums pairwise).
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .closedloop import _assemble, assemble_stacked, error_h2
from .conditions import AgentModel
from .errors import ConfigInvalid, DimensionMismatch, Diverged
from .graph import CommGraph, laplacian
from .linalg import _as_matrix, _as_system
from .modal import _modes
from .protocol import ProtocolRealization, _require_fits

__all__ = [
    "SimConfig",
    "SimResult",
    "ConsistencyResult",
    "simulate",
    "trajectory_blocks",
    "rms",
    "monte_carlo_rms",
    "rms_vs_h2_consistency",
    "step_matrices",
    "white_noise_rms",
]

DIVERGENCE_LIMIT = 1e12
# size cap of one block of full loop states and of one pair-error chunk
_BLOCK_BYTES = 2 << 20
# the most `simulate` may hold in memory; longer runs stream instead
_SIMULATE_MAX_BYTES = 1 << 30


def _require_dt(dt):
    """ConfigInvalid unless the step dt is a positive finite real number."""
    if not (isinstance(dt, numbers.Real) and 0.0 < dt < math.inf):
        raise ConfigInvalid(f"dt must be a positive finite real number, got {dt!r}")


def _require_integrator(integrator):
    """ConfigInvalid unless integrator names one of the two step maps."""
    if integrator not in ("rk4", "zoh"):
        raise ConfigInvalid(f"integrator must be 'rk4' or 'zoh', got {integrator!r}")


def _check_time_grid(dt, t_final):
    """The step count round(t_final / dt) of a run; ConfigInvalid for a
    step or horizon no run can use."""
    _require_dt(dt)
    if not (isinstance(t_final, numbers.Real) and -math.inf < t_final < math.inf):
        raise ConfigInvalid(f"t_final must be a finite real number, got {t_final!r}")
    if t_final < 100 * dt:
        raise ConfigInvalid(
            f"t_final must be at least 100*dt = {100 * dt}, got {t_final}"
        )
    try:
        return int(round(t_final / dt))
    except OverflowError:
        raise ConfigInvalid(f"t_final / dt overflows the step count: {t_final} / {dt}") from None


@dataclass(frozen=True)
class SimConfig:
    """One run's settings, checked when made.  Frozen: change a field
    with `dataclasses.replace`, which checks the new config again."""

    model: AgentModel
    graph: CommGraph
    protocol: ProtocolRealization
    t_final: float
    dt: float = 1e-3
    noise: str = "off"
    seed: int = 0
    initial_conditions: Optional[np.ndarray] = None
    integrator: str = "rk4"

    def __post_init__(self):
        for name, kind in (("model", AgentModel), ("graph", CommGraph),
                           ("protocol", ProtocolRealization)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigInvalid(f"{name} must be a {kind.__name__}, "
                                    f"got {type(getattr(self, name)).__name__}")
        steps = _check_time_grid(self.dt, self.t_final)
        if 8 * (steps + 1) > _SIMULATE_MAX_BYTES:
            raise ConfigInvalid(f"t_final / dt = {steps} steps would keep {8 * (steps + 1)} "
                                f"bytes of sync error (cap {_SIMULATE_MAX_BYTES})")
        _require_fits(self.protocol, self.model)
        if self.noise not in ("off", "white"):
            raise ConfigInvalid(f"noise must be 'off' or 'white', got {self.noise!r}")
        _require_integrator(self.integrator)
        if self.initial_conditions is not None:
            try:
                object.__setattr__(self, "initial_conditions", _as_matrix(
                    self.initial_conditions, "initial_conditions", self.graph.n_agents, self.model.n))
            except DimensionMismatch as exc:  # a config field, not a system matrix
                raise ConfigInvalid(str(exc)) from None

    @property
    def steps(self):
        return _check_time_grid(self.dt, self.t_final)


@dataclass
class SimResult:
    t: np.ndarray
    states: np.ndarray  # (steps+1, N, n) agent states
    sync_error: np.ndarray  # max over pairs of ||x_i - x_j|| per step
    rms_sync_error: float


@dataclass
class ConsistencyResult:
    empirical_rms: float
    predicted_h2: float
    ratio: Optional[float]  # None for the exact-zero (E = 0) case
    per_seed_rms: np.ndarray


def step_matrices(A, B, dt, integrator):
    """One-step affine propagators (M, K): z+ = M z + K w for input held
    over the step.  rk4 = 4th-order Taylor polynomial; zoh = exact; any
    other integrator, or a step `_require_dt` refuses, is ConfigInvalid."""
    _require_dt(dt)
    _require_integrator(integrator)
    A, B, _ = _as_system(A, B)
    dim = A.shape[0]
    if integrator == "rk4":
        M = np.eye(dim)
        term = np.eye(dim)
        for k in range(1, 5):
            term = term @ A * (dt / k)
            M = M + term
        K = (
            np.eye(dim) * dt
            + A * dt**2 / 2
            + A @ A * dt**3 / 6
            + A @ A @ A * dt**4 / 24
        ) @ B
        return M, K
    # exact ZOH via the block-matrix exponential (valid for singular A)
    nw = B.shape[1]
    blk = np.zeros((dim + nw, dim + nw))
    blk[:dim, :dim] = A * dt
    blk[:dim, dim:] = B * dt
    full = sla.expm(blk)
    return full[:dim, :dim], full[:dim, dim:]


def _block_rows(width, runs):
    """Rows of `width` values for each of `runs` runs that one block of
    _BLOCK_BYTES holds, at least one."""
    return max(1, _BLOCK_BYTES // (8 * width * runs))


def _propagate(M, K, z, steps, dt, rngs=None, keep=None):
    """Yield (i, block): the leading `keep` rows (default all) of states
    z_i, ..., z_{i+c-1} of z+ = M z + K w, from z_0 alone as first block.

    z is (dim,) for one run (each step a matrix-vector product) or
    (dim, s) for s runs as columns.  A block holds c full states and is
    sized by max(dim, nw) within _BLOCK_BYTES.  With `rngs`, one per run,
    each block draws its w from every generator in turn, scaled by
    sqrt(1/dt), and starts as the block's K w in one batched product (the
    same product per step as K @ w); each step then adds M z in place.
    Without `rngs`, w = 0 and each step writes M z into the block.  The
    yielded rows are views of the block.  Raises Diverged when a block
    ends non-finite or with a run's norm above DIVERGENCE_LIMIT."""
    keep = z.shape[0] if keep is None else keep
    nw = K.shape[1]
    rows = _block_rows(max(z.shape[0], nw), math.prod(z.shape[1:]))
    sd = math.sqrt(1.0 / dt)
    yield 0, z[None, :keep].copy()
    k = 0
    while k < steps:
        c = min(rows, steps - k)
        # overflow is the guard's to report, not numpy's (no yield inside)
        with np.errstate(over="ignore", invalid="ignore"):
            if rngs:
                W = np.stack([rng.standard_normal((c, nw)) for rng in rngs], axis=2) * sd
                blk = np.matmul(K, W).reshape((c,) + z.shape)
                blk[0] += M @ z
                for j in range(1, c):
                    blk[j] += M @ blk[j - 1]
            else:
                blk = np.empty((c,) + z.shape)
                np.matmul(M, z, out=blk[0])
                for j in range(1, c):
                    np.matmul(M, blk[j - 1], out=blk[j])
            z = blk[-1]
            norm = np.linalg.norm(z, axis=0).max()
        if not norm <= DIVERGENCE_LIMIT:  # a non-finite state fails too
            raise Diverged(
                f"state norm exceeded {DIVERGENCE_LIMIT:.0e} by t={(k + c) * dt:.3f}"
            )
        yield k + 1, blk[:, :keep]
        k += c


def _generators(seeds):
    """One generator per seed; ConfigInvalid for no seeds or a seed numpy
    cannot take."""
    try:
        rngs = [np.random.default_rng(seed) for seed in seeds]
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad seed: {exc}") from None
    if not rngs:
        raise ConfigInvalid("need at least one seed")
    return rngs


def _step_growth(mu, dt, integrator):
    """max |g(dt mu)| over the modes mu: the growth of one step on the
    difference subspace, g(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 for rk4
    and e^z for zoh.  For rk4 it is at least max |e^(dt mu)|, so a mode
    with Re mu >= 0 fails for either integrator at every step."""
    z = dt * mu
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is refused
        growth = np.abs(np.exp(z))
        if integrator == "rk4":
            growth = np.maximum(growth, np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))))
    return growth.max()


def _require_stable_step(mu, dt, integrator):
    """Diverged when a step grows one of the modes mu (see `_step_growth`),
    naming the largest dt / 2^k that is stable, if any."""
    growth = _step_growth(mu, dt, integrator)
    if not growth < 1.0:
        k = next((k for k in range(1, 53)  # dt / 2^52 is past any usable step
                  if _step_growth(mu, dt / 2**k, integrator) < 1.0), None)
        raise Diverged(
            f"the {integrator} step dt={dt:g} grows a mode of the loop "
            f"(max |g(dt mu)| = {growth:.6g} >= 1); "
            + ("no step is stable" if k is None else
               f"dt / 2^{k} = {dt / 2**k:g} is the largest dt / 2^k that is stable"))


def _start(cfg, seeds):
    """Step matrices, initial states (dim, len(seeds)) as `simulate`
    describes them, and one generator per seed.  Diverged, before the
    first step, when a step grows a mode of the error-form loop."""
    rngs = _generators(seeds)
    mu = _modes(_assemble(cfg.model, cfg.protocol, laplacian(cfg.graph)))[-1]
    _require_stable_step(mu, cfg.dt, cfg.integrator)
    cl = assemble_stacked(cfg.model, cfg.protocol, cfg.graph)
    M, K = step_matrices(cl.A_cl, cl.B_cl, cfg.dt, cfg.integrator)
    Nn = cfg.graph.n_agents * cfg.model.n
    Z = np.zeros((M.shape[0], len(seeds)))
    ic = cfg.initial_conditions
    for col, rng in enumerate(rngs):
        Z[:Nn, col] = rng.uniform(-1.0, 1.0, size=Nn) if ic is None else ic.reshape(-1)
    return M, K, Z, rngs


def _max_pair_sq(X):
    """X (T, N, n[, s]) -> per-step max over agent pairs of ||x_i - x_j||^2.

    Chunks of steps are reduced agent by agent instead of gathering all
    N(N+1)/2 pair differences: for each agent i, the differences to
    agents j >= i are written to one buffer, squared in place, their
    components summed and a running maximum kept.  Pairs i <= j suffice,
    since x_j - x_i is exactly -(x_i - x_j); the diagonal stays, so a
    non-finite state gives NaN, as all N x N pairs do.

    The result is bit-identical to (D**2).sum(axis=2).max(axis=1) over
    the gathered differences D (T, pairs, n[, s]).  That sum runs in
    sequence over batched runs and over fewer than 8 components: there
    each chunk is first copied to Y (N, n, steps x runs), and in-place
    adds over that contiguous step-and-run axis repeat it.  A single run
    of 8 or more is summed pairwise: there the buffer keeps each step's
    components last, as X does, and np.add.reduce sums them itself."""
    (T, N, n), run_shape = X.shape[:3], X.shape[3:]
    runs = math.prod(run_shape)
    rows = _block_rows(N * n, runs)
    # the diagonal pair gives 0 for a finite state, so 0 moves no maximum
    out = np.zeros((T, runs))
    if runs == 1 and n >= 8:  # numpy's pairwise order, by numpy
        X, R = X.reshape(T, N, n).transpose(1, 0, 2), min(rows, T)
        D, S = np.empty((N, R, n)), np.empty((N, R))
        for a in range(0, T, rows):
            c = min(rows, T - a)
            x, best = X[:, a : a + c], out[a : a + c, 0]
            for i in range(N):
                d = D[: N - i, :c]
                np.subtract(x[i:], x[i], out=d)
                np.multiply(d, d, out=d)
                s = np.add.reduce(d, axis=2, out=S[: N - i, :c])
                np.maximum(best, s.max(axis=0), out=best)
        return out.reshape((T,) + run_shape)
    X = X.reshape(T, N, n, runs)
    Y = np.empty((N, n, min(rows, T), runs))
    D = np.empty((N, n, Y.shape[2] * runs))
    for a in range(0, T, rows):
        c = min(rows, T - a)
        Y[:, :, :c] = np.moveaxis(X[a : a + c], 0, 2)
        y = Y[:, :, :c].reshape(N, n, c * runs)
        best = out[a : a + c].reshape(-1)
        for i in range(N):
            d = D[: N - i, :, : c * runs]
            np.subtract(y[i:], y[i], out=d)
            np.multiply(d, d, out=d)
            for k in range(1, n):
                d[:, 0] += d[:, k]
            np.maximum(best, d[:, 0].max(axis=0), out=best)
    return out.reshape((T,) + run_shape)


def _max_pair_error(states):
    """states (T, N, n) -> per-step max over agent pairs of ||x_i - x_j||."""
    return np.sqrt(_max_pair_sq(states))


def _tail_rms(blocks, steps, square_sum):
    """RMS over the last ceil(steps/2) of t_1, ..., t_steps of the
    `_propagate` blocks, with square_sum mapping a block's tail rows to a
    new array of squared values per step.  Each block's rows are added
    to the running sum by np.add.accumulate, which adds one step at a
    time, so no result depends on where blocks end."""
    tail_start = steps // 2
    acc = 0.0
    for i, blk in blocks:
        sq = square_sum(blk[max(0, tail_start + 1 - i):])
        if len(sq):
            sq[0] += acc
            acc = np.add.accumulate(sq)[-1]
    return np.sqrt(acc / (steps - tail_start))


def rms(signal):
    """Root-mean-square of a sampled signal over its second half.

    signal is (T,) or (T, k); the value is the square root of the time
    average of the squared 2-norm over the last ceil(T/2) samples.
    ConfigInvalid for an empty signal or one that is not an array of
    real numbers, or one with more than two axes.
    """
    try:
        sig = np.atleast_1d(np.asarray(signal))
    except ValueError as exc:  # ragged nesting
        raise ConfigInvalid(f"rms of a ragged signal: {exc}") from None
    T = sig.shape[0]
    # a cast would drop imaginary parts or parse text
    if T == 0 or sig.ndim > 2 or sig.dtype.kind not in "biuf":
        raise ConfigInvalid(f"rms needs a nonempty real (T,) or (T, k) signal, "
                            f"got {sig.dtype} {sig.shape}")
    tail = sig[T // 2:].astype(float, copy=False)
    sq = tail**2 if tail.ndim == 1 else (tail**2).sum(axis=1)
    return float(np.sqrt(sq.mean()))


def trajectory_blocks(cfg: SimConfig):
    """The run `simulate` makes, as (i, states) with states (c, N, n) the
    agent states at steps i, ..., i + c - 1, one block at a time."""
    M, K, Z, rngs = _start(cfg, [cfg.seed])
    N, n = cfg.graph.n_agents, cfg.model.n
    noise = rngs if cfg.noise == "white" else None
    for i, blk in _propagate(M, K, Z[:, 0], cfg.steps, cfg.dt, noise, keep=N * n):
        yield i, blk.reshape(-1, N, n)


def simulate(cfg: SimConfig) -> SimResult:
    """Fixed-step integration of the stacked network.

    Initial agent states come from cfg.initial_conditions or are drawn
    uniformly from [-1, 1]^n per agent with the run seed; controller
    states start at zero.  Raises Diverged when the state norm passes
    1e12 (unstable or misconfigured loop).  ConfigInvalid, before any
    step, when the states, times and errors it keeps would pass
    _SIMULATE_MAX_BYTES.  rms_sync_error, like the CLI's summary.csv,
    averages the last ceil((steps + 1)/2) of t_0, ..., t_steps.
    """
    steps = cfg.steps
    N, n = cfg.graph.n_agents, cfg.model.n
    need = 8 * (steps + 1) * (N * n + 2)
    if need > _SIMULATE_MAX_BYTES:
        raise ConfigInvalid(
            f"simulate would keep {need} bytes of trajectory (cap {_SIMULATE_MAX_BYTES}); "
            "stream the run with trajectory_blocks or reduce it with monte_carlo_rms"
        )
    states = np.empty((steps + 1, N, n))
    for i, blk in trajectory_blocks(cfg):
        states[i : i + len(blk)] = blk
    sync = _max_pair_error(states)
    return SimResult(np.arange(steps + 1) * cfg.dt, states, sync, rms(sync))


def monte_carlo_rms(cfg: SimConfig, seeds):
    """Batched white-noise runs, one column per seed; no trajectories kept.

    Returns (rms_sync, rms_xbar): per-seed tail RMS of the max-pair
    synchronization error and of the stacked difference vector
    xbar = (x_1 - x_N, ..., x_{N-1} - x_N), the tail being the last
    ceil(steps/2) of t_1, ..., t_steps.  Each seed's initial
    conditions and noise stream match a single run with that seed.
    """
    if cfg.noise != "white":
        raise ConfigInvalid("monte_carlo_rms requires noise='white'")
    return tuple(_seed_tail_rms(
        cfg, seeds, lambda X: np.stack([_max_pair_sq(X), _xbar_sq(X)], axis=1)))


def _xbar_sq(X):
    """X (T, N, n, s) -> per-step ||xbar||^2, xbar = (x_i - x_N)_{i < N}."""
    xb = X[:, :-1] - X[:, -1:]
    return (xb**2).sum(axis=(1, 2))


def _seed_tail_rms(cfg, seeds, square_sum):
    """`_tail_rms` of the batched white-noise runs of `seeds`, with
    square_sum mapping agent states (T, N, n, seeds) to squared values."""
    M, K, Z, rngs = _start(cfg, seeds)
    N, n, s = cfg.graph.n_agents, cfg.model.n, len(seeds)
    blocks = _propagate(M, K, Z, cfg.steps, cfg.dt, rngs, keep=N * n)
    return _tail_rms(blocks, cfg.steps, lambda blk: square_sum(blk.reshape(-1, N, n, s)))


def white_noise_rms(A, B, C, dt, t_final, seeds):
    """Per-seed RMS of y = C z for dz = A z + B w under held white noise
    (zero initial state), RK4-stepped, over the last ceil(steps/2) of
    t_1, ..., t_steps as in `monte_carlo_rms`; the sanity kernel of the
    H2-as-RMS checks, seeds batched as columns.  Diverged, before the
    first step, when the step grows a mode (an eigenvalue of A)."""
    steps = _check_time_grid(dt, t_final)
    A, B, C = _as_system(A, B, C)
    rngs = _generators(seeds)
    _require_stable_step(np.linalg.eigvals(A), dt, "rk4")
    M, K = step_matrices(A, B, dt, "rk4")
    blocks = _propagate(M, K, np.zeros((A.shape[0], len(rngs))), steps, dt, rngs)
    return _tail_rms(blocks, steps, lambda blk: ((C @ blk) ** 2).sum(axis=1))


def rms_vs_h2_consistency(cfg: SimConfig, n_seeds: int) -> ConsistencyResult:
    """Monte-Carlo RMS of xbar against the H2 norm of the error-form loop.

    Seeds are cfg.seed, cfg.seed + 1, ...; the empirical value is the
    square root of the seed-averaged squared RMS, matching the
    ensemble-RMS definition.  The ratio tends to 1 as dt -> 0,
    t_final -> inf, n_seeds -> inf; it is None when the loop is
    disturbance-free (E = 0).  ConfigInvalid unless n_seeds is an
    integer >= 1.
    """
    if cfg.noise != "white":
        raise ConfigInvalid("rms_vs_h2_consistency requires noise='white'")
    if not isinstance(n_seeds, numbers.Integral) or n_seeds < 1:
        raise ConfigInvalid(f"n_seeds must be an integer >= 1, got {n_seeds!r}")
    predicted = error_h2(_assemble(cfg.model, cfg.protocol, laplacian(cfg.graph)))

    seeds = [cfg.seed + i for i in range(n_seeds)]
    rms_xbar = _seed_tail_rms(cfg, seeds, _xbar_sq)
    empirical = float(np.sqrt(math.fsum(rms_xbar**2) / n_seeds))
    ratio = None if predicted == 0.0 else empirical / predicted
    return ConsistencyResult(empirical, predicted, ratio, rms_xbar)
