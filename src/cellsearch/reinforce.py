"""Policy-gradient architecture search.

An autoregressive recurrent controller emits one decision per step — every
possible edge (binary), then every interior op (ternary) — and the whole
action sequence is assembled into a cell. Each step's logits are the shared
arity head applied to the recurrent state plus a bias of that step's own,
so every edge can be switched on or off independently of the others.

The controller is trained with the score-function estimator:
advantage-weighted gradients of the sampled sequence log-probability,
against an exponential-moving-average baseline. The update weighs each
sample by its utility exp(K * (reward - best)), where best is the best
reward seen so far and K is REWARD_SHARPNESS; invalid samples have utility
0. Expected reward under a noisy policy favours cells that survive its
noise (extra shortcut edges guard against broken paths); the exponential
utility instead favours the best cells the controller can find.

Each rollout runs forward once: `sample` keeps its hidden states, and the
exact gradient backpropagates through them (`follow` runs the same forward
pass along given actions). Each update runs backward once: one
`logprob_and_grad` call takes the gradients of a whole batch, a row per
rollout, each bit for bit the row that rollout's own pass would give. It
writes into a `Workspace` that `run_reinforce` builds once for its batch
size, and what it returns shares no memory with that workspace.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Annotated

import numpy as np

from . import flatparams
from .cellspace import (
    INTERIOR_OPS, MAX_VERTICES, ModelSpec, OpLabel, SpaceLimits, phenotype_of,
    upper_triangle_pairs,
)
from .errors import ConfigError, In, ShapeError, check_fields

# Embedding-table rows: the learned start token, then one row per
# (step type, action) pair; _EMB_ROWS[arity][action] is the row a step's
# action feeds to the next step.
_EMB_START = 0
_EMB_ROWS = (None, None, (1, 2), (3, 4, 5))
N_EMBEDDINGS = 6

DEFAULT_HIDDEN = 32
DEFAULT_EMB_DIM = 8

# Rows of the per-step bias table: the decisions of the largest space,
# MAX_VERTICES vertices (21 edge bits + 5 ops), so every space's schedule fits.
MAX_STEPS = len(upper_triangle_pairs(MAX_VERTICES)) + MAX_VERTICES - 2

# K in the utility exp(K * (reward - best)). At K = 10 a cell 0.01 below
# the best so far weighs 0.90 and one 0.07 below weighs 0.50.
REWARD_SHARPNESS = 10.0


def _arities(limits: SpaceLimits) -> tuple:
    """Arities of the full-space schedule: one binary step per
    upper-triangle pair, then one ternary step per interior vertex."""
    v = limits.max_vertices
    return (2,) * len(upper_triangle_pairs(v)) + (3,) * (v - 2)


@dataclass(frozen=True)
class DecisionSchedule:
    """Ordered decision arities, plus (optionally) the limits whose cells
    the resulting actions assemble into.

    The full-space schedule for max_vertices v is C(v,2) binary edge
    decisions, step k setting bit k of the genome's mask, then v-2 ternary
    op decisions, each choosing INTERIOR_OPS[action]; SpaceLimits caps v, so
    it never has more than MAX_STEPS. Schedules built without limits support
    sampling and gradients but not assembly — useful for bandit probes of
    the estimator; they too are refused past MAX_STEPS decisions.
    """

    arities: tuple
    limits: SpaceLimits | None = None

    def __post_init__(self):
        if len(self.arities) > MAX_STEPS:
            raise ConfigError(
                f"{len(self.arities)} decisions exceed the controller's {MAX_STEPS} steps"
            )
        for a in self.arities:
            if a not in (2, 3):
                raise ConfigError(f"unsupported arity {a}")
        if self.limits is not None and self.arities != _arities(self.limits):
            raise ConfigError(f"arities do not match the assembly layout of {self.limits}")

    @classmethod
    def from_limits(cls, limits: SpaceLimits) -> "DecisionSchedule":
        return cls(_arities(limits), limits)

    @property
    def num_steps(self) -> int:
        return len(self.arities)

    @cached_property
    def steps_by_arity(self) -> tuple:
        """(arity, indices of the steps with that arity), per arity used."""
        return tuple(
            (a, np.array([t for t, x in enumerate(self.arities) if x == a]))
            for a in (2, 3)
            if a in self.arities
        )

    def assemble(self, actions) -> ModelSpec | None:
        """Actions -> pruned spec, or None when the result is not a valid
        cell (no IN->OUT path, or over the edge budget after pruning)."""
        if self.limits is None:
            raise ConfigError("schedule has no assembly layout")
        flips = self.arities.count(2)  # edge step k decides bit k of the genome's mask
        mask = sum([1 << k for k, a in enumerate(actions[:flips]) if a == 1])
        ops = (OpLabel.IN, *[INTERIOR_OPS[a] for a in actions[flips:]], OpLabel.OUT)
        return phenotype_of(self.limits.max_vertices, mask, ops, self.limits)


def _shapes(hidden_size: int, emb_dim: int) -> dict:
    """Parameter name -> shape, in flatten() order."""
    return {
        "W_e": (hidden_size, emb_dim),
        "W_h": (hidden_size, hidden_size),
        "b_h": (hidden_size,),
        "emb": (N_EMBEDDINGS, emb_dim),
        "W2": (2, hidden_size),
        "W3": (3, hidden_size),
        "b_step": (MAX_STEPS, 3),
    }


@dataclass
class ControllerState:
    """Recurrent core + action embeddings + per-arity output heads, with
    one output bias per decision step (binary steps use the first two
    columns of their row)."""

    W_e: np.ndarray  # hidden x emb_dim
    W_h: np.ndarray  # hidden x hidden
    b_h: np.ndarray  # hidden
    emb: np.ndarray  # N_EMBEDDINGS x emb_dim
    W2: np.ndarray  # 2 x hidden
    W3: np.ndarray  # 3 x hidden
    b_step: np.ndarray  # MAX_STEPS x 3

    _FIELDS = tuple(_shapes(1, 1))

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[0]

    @property
    def emb_dim(self) -> int:
        return self.W_e.shape[1]

    @classmethod
    def seeded(
        cls, seed: int, hidden_size=DEFAULT_HIDDEN, emb_dim=DEFAULT_EMB_DIM, init_scale: float = 0.1
    ) -> "ControllerState":
        return cls(**flatparams.seeded(_shapes(hidden_size, emb_dim), seed, init_scale))

    def flatten(self) -> np.ndarray:
        return np.concatenate([getattr(self, name) for name in self._FIELDS], axis=None)

    @classmethod
    def from_flat(cls, theta, hidden_size, emb_dim):
        """Unflatten a copy of a parameter vector. Every update lands here,
        so this is where bad parameters are caught: a wrong length or
        non-finite entries raise."""
        theta = np.array(theta, dtype=float)
        return cls(**flatparams.unflatten(theta, _shapes(hidden_size, emb_dim), "controller"))


@dataclass
class Baseline:
    """Exponential moving average of batch means (of the utilities, in
    run_reinforce). `value` is None, and `read` gives 0.0, until the first update."""

    value: float | None = None
    beta: float = 0.9

    def read(self) -> float:
        return 0.0 if self.value is None else self.value

    def update(self, batch_mean: float) -> None:
        if self.value is None:
            self.value = float(batch_mean)
        else:
            self.value = self.beta * self.value + (1.0 - self.beta) * batch_mean


@dataclass
class SampledArch:
    """One controller rollout: actions, the assembled (pruned) cell or the
    invalid marker, the reward, and the forward pass's hidden states
    h_0..h_T as one (T+1, hidden) array, which the gradient backpropagates
    through (`run_reinforce` drops them once its batch's update is
    taken)."""

    actions: tuple
    spec: ModelSpec | None
    invalid: bool
    reward: float = 0.0
    states: np.ndarray | None = None


def _rollout(c: ControllerState, schedule: DecisionSchedule, rng, given) -> SampledArch:
    """The controller's one forward pass.

    Step input is the embedding of the previous action (the start embedding
    at step one); the arity-matched head plus the step's bias produces
    logits. Step t takes `given[t]`, or with no `given` draws from the
    logits' softmax with one `rng.random()`. Every hidden state is kept for
    the gradient pass.

    Only the products, `tanh` and `exp` run in numpy. The 2–3 logits'
    bias, shift and log-sum, and the inverse-CDF draw, run on Python
    floats, with the bits of a numpy softmax over the same logits. `np.exp`
    on one float has the bits of `np.exp` on an array; `math.exp` does
    not. A shifted logit is exactly 0.0 where it is the maximum, and there
    the log-sum takes 1.0 for its `np.exp`, which is exactly 1.0."""
    inputs = list(c.emb @ c.W_e.T + c.b_h)  # one row per embedding
    W_h, W2, W3, bias = c.W_h, c.W2, c.W3, c.b_step.tolist()
    hs = np.zeros((schedule.num_steps + 1, c.hidden_size))
    rows = list(hs)
    h = rows[0]
    prev = _EMB_START
    actions = []
    exp, log = np.exp, math.log
    # .dot gives the bytes of @ with less per-call overhead
    for t, arity in enumerate(schedule.arities):
        row = rows[t + 1]
        W_h.dot(h, out=row)
        row += inputs[prev]
        h = np.tanh(row, out=row)
        if given is not None:
            action = given[t]
        elif arity == 2:
            b0, b1, _ = bias[t]
            z0, z1 = W2.dot(h).tolist()
            z0, z1 = z0 + b0, z1 + b1
            m = z1 if z1 > z0 else z0  # max(z0, z1), tie and all
            z0, z1 = z0 - m, z1 - m
            lse = log(sum([float(exp(z0)) if z0 else 1.0, float(exp(z1)) if z1 else 1.0]))
            action = 0 if rng.random() < exp(z0 - lse) else 1
        else:
            b0, b1, b2 = bias[t]
            z0, z1, z2 = W3.dot(h).tolist()
            z0, z1, z2 = z0 + b0, z1 + b1, z2 + b2
            m = max(z0, z1, z2)
            z0, z1, z2 = z0 - m, z1 - m, z2 - m
            lse = log(sum([float(exp(z0)) if z0 else 1.0, float(exp(z1)) if z1 else 1.0,
                           float(exp(z2)) if z2 else 1.0]))
            p0 = float(exp(z0 - lse))
            r = rng.random()
            action = 0 if r < p0 else (1 if r < p0 + float(exp(z1 - lse)) else 2)
        actions.append(action)
        prev = _EMB_ROWS[arity][action]

    spec = None
    invalid = False
    if schedule.limits is not None:
        spec = schedule.assemble(actions)
        invalid = spec is None
    return SampledArch(tuple(actions), spec, invalid, states=hs)


def sample(controller: ControllerState, schedule: DecisionSchedule, rng: random.Random) -> SampledArch:
    """Roll the controller forward for one architecture, drawing each action
    from its step's softmax with one `rng.random()` and no other rng call."""
    return _rollout(controller, schedule, rng, None)


def _check_actions(schedule: DecisionSchedule, actions, of: str = "") -> None:
    """ShapeError unless each step has one action, an int in its range(arity)."""
    if len(actions) != schedule.num_steps:
        raise ShapeError(f"expected {schedule.num_steps} actions{of}, got {len(actions)}")
    for t, (arity, a) in enumerate(zip(schedule.arities, actions)):
        if type(a) is not int or not 0 <= a < arity:
            raise ShapeError(f"action {a!r} at step {t}{of} is not an int in range({arity})")


def follow(controller: ControllerState, schedule: DecisionSchedule, actions) -> SampledArch:
    """`sample`'s forward pass with each step's action read from `actions`,
    once they pass `_check_actions`, instead of drawn."""
    _check_actions(schedule, actions)
    return _rollout(controller, schedule, None, actions)


def reward_of(s: SampledArch, fitness) -> float:
    """Fitness of the sampled cell; invalid samples earn 0.0 and cost
    nothing."""
    if s.invalid:
        return 0.0
    if s.spec is None:
        raise ConfigError("sample carries no architecture; supply a custom reward")
    return fitness.evaluate(s.spec)


def utility(s: SampledArch, best: float) -> float:
    """What the update weighs a sample by: exp(K * (reward - best)) with
    K = REWARD_SHARPNESS and best the best reward so far, so the best cell
    weighs 1; invalid samples weigh 0."""
    if s.invalid:
        return 0.0
    return math.exp(REWARD_SHARPNESS * (s.reward - best))


class Workspace:
    """Every buffer `logprob_and_grad` writes for up to `batch_size`
    rollouts of `schedule` at one (hidden_size, emb_dim), with the
    schedule's loop-invariant index work. `run_reinforce` builds one and
    each batch's update writes into it. A call on n rollouts uses each
    buffer's leading n rows, which are C-contiguous, so BLAS sees each
    rollout's operands in the layout a lone rollout's would have."""

    def __init__(self, schedule: DecisionSchedule, hidden_size: int, emb_dim: int, batch_size: int):
        T, H = schedule.num_steps, hidden_size
        self.schedule = schedule
        self.shapes = _shapes(hidden_size, emb_dim)
        self.states = np.empty((batch_size, T + 1, H))
        # a row per rollout, in flatten() order, with each parameter's
        # (batch, *shape) view; what no call writes (an unused head, the
        # binary steps' third bias, the biases past T) stays +0.0
        self.G = np.zeros((batch_size, flatparams.size(self.shapes)))
        self.g = flatparams.views(self.G, self.shapes)
        self.dA = np.empty((batch_size, T, H))
        self.dtanh = np.empty((batch_size, T, H))
        self.dh = np.empty((batch_size, 1, H))
        # the embedding gradient's terms by (rollout, step, row), +0.0
        # between calls
        self.emb_terms = np.zeros((batch_size, T, N_EMBEDDINGS, emb_dim))
        self.each = np.arange(batch_size)[:, None]
        self.times = np.arange(T)
        # (arity, its steps, their positions, a buffer for the steps'
        # states, which then takes their d logprob / d h_t)
        self.by_arity = tuple(
            (a, steps, np.arange(len(steps)), np.empty((batch_size, len(steps), H)))
            for a, steps in schedule.steps_by_arity
        )
        # step t's input row: the start token, then the row of step t-1's
        # action, its arity's first row plus the action
        self.rows = np.full((batch_size, T), _EMB_START)
        self.offsets = np.array([_EMB_ROWS[a][0] for a in schedule.arities[:-1]], dtype=int)


def logprob_and_grad(controller: ControllerState, schedule: DecisionSchedule, rollouts, work: Workspace):
    """Log-probabilities of the rollouts' actions and their exact gradients,
    in one backward pass over the stacked rollouts, written into `work`.

    Backpropagates through time along the hidden states each rollout kept,
    so the forward recurrence does not run again; the heads and the weight
    gradients are computed for all steps at once, and the recurrence for
    all rollouts at once. Every product is a stacked `@` that hands BLAS
    each rollout's operands in the layout a lone rollout's would have, so
    no row depends on the rest of the batch. Returns (logprobs of shape
    (n,), gradients of shape (n, P) with each row aligned with flatten()),
    neither sharing memory with `work`. Each rollout's actions pass
    `_check_actions`, as `follow`'s do: any action that is not an int in
    its step's range(arity) is refused, as are more rollouts than `work`
    has rows and a workspace of another schedule or controller size.

    numpy and BLAS choose a summation order by layout, so the copies here
    are `np.take`, row-major per rollout: fancy indexing (`H[:, steps]`)
    leaves the rollout axis innermost, which moved the head gradients at
    hidden size 1 and the sum of every rollout's picked log-probabilities.
    The embedding gradient sums each (rollout, row)'s terms in increasing
    step order from +0.0, the other steps adding +0.0, which never changes
    a sum that started at +0.0."""
    c = controller
    T = schedule.num_steps
    for k, r in enumerate(rollouts):
        _check_actions(schedule, r.actions, f" of rollout {k}")
    n = len(rollouts)
    if (work.schedule, work.shapes) != (schedule, _shapes(c.hidden_size, c.emb_dim)):
        raise ShapeError("workspace was built for another schedule or controller size")
    if n > len(work.G):
        raise ShapeError(f"{n} rollouts exceed the workspace's {len(work.G)} rows")
    HS = work.states[:n]
    if n:
        np.stack([r.states for r in rollouts], out=HS)
    chosen = np.array([r.actions for r in rollouts], dtype=int).reshape(n, T)
    rows = work.rows[:n]
    np.add(chosen[:, :-1], work.offsets, out=rows[:, 1:])
    each = work.each[:n]
    H = HS[:, 1:]

    g = {name: view[:n] for name, view in work.g.items()}
    # d logprob / d h_t through step t's head; the pass through time turns
    # row t into d logprob / d pre-activation of h_t
    dA = work.dA[:n]
    logprobs = np.zeros(n)
    for arity, steps, across, hk in work.by_arity:
        W, gW = (c.W2, g["W2"]) if arity == 2 else (c.W3, g["W3"])
        # the steps lie in range; clip keeps `take` from buffering its output
        Hk = np.take(H, steps, axis=1, out=hk[:n], mode="clip")
        logits = Hk @ W.T + c.b_step[steps, :arity]
        logp = logits - logits.max(axis=2, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=2, keepdims=True))
        picked = (each, across, np.take(chosen, steps, axis=1))
        logprobs += logp[picked].sum(axis=1)
        dlogits = -np.exp(logp)
        dlogits[picked] += 1.0
        np.matmul(dlogits.transpose(0, 2, 1), Hk, out=gW)
        g["b_step"][:, steps, :arity] = dlogits
        dA[:, steps] = np.matmul(dlogits, W, out=Hk)

    dtanh = np.square(H, out=work.dtanh[:n])
    np.subtract(1.0, dtanh, out=dtanh)
    dh = work.dh[:n]
    dh[...] = 0.0
    # through time, step T-1 down to 0, every rollout's row at once
    for t in range(T - 1, -1, -1):
        da = dA[:, t]
        da += dh[:, 0]
        da *= dtanh[:, t]
        np.matmul(da[:, None], c.W_h, out=dh)
    dAT = dA.transpose(0, 2, 1)
    np.matmul(dAT, c.emb[rows], out=g["W_e"])
    terms, scatter = work.emb_terms[:n], (each, work.times, rows)
    terms[scatter] = dA @ c.W_e
    np.add.reduce(terms, 1, out=g["emb"], initial=0.0)
    terms[scatter] = 0.0
    np.matmul(dAT, HS[:, :-1], out=g["W_h"])
    dA.sum(axis=1, out=g["b_h"])
    return logprobs, work.G[:n].copy()


def reinforce_update(
    controller: ControllerState,
    schedule: DecisionSchedule,
    batch,
    baseline,
    learning_rate: float,
    utilities,
    work: Workspace,
) -> ControllerState:
    """One ascent step along (1/m) sum_k (U_k - b) grad log P(actions_k).

    U_k is `utilities[k]`; `baseline` is b, the value read before this
    batch's baseline update. The gradients of the samples whose advantage
    is nonzero come from one `logprob_and_grad` call, written into `work`,
    and are summed in batch order.
    """
    if not batch:
        raise ConfigError("empty batch")
    weighted = [(s, u - baseline) for s, u in zip(batch, utilities) if u - baseline != 0.0]
    _, grads = logprob_and_grad(controller, schedule, [s for s, _ in weighted], work)
    total = np.zeros(grads.shape[1])
    for (_, advantage), g in zip(weighted, grads):
        total += advantage * g
    theta = controller.flatten() + learning_rate * total / len(batch)
    return ControllerState.from_flat(theta, controller.hidden_size, controller.emb_dim)


@dataclass(frozen=True)
class ReinforceConfig:
    batch_size: Annotated[int, In("[1, inf)")] = 20
    iterations: Annotated[int, In("[0, inf)")] = 50
    learning_rate: Annotated[float, In("(0, inf)")] = 0.005
    hidden_size: Annotated[int, In("[1, inf)")] = DEFAULT_HIDDEN
    emb_dim: Annotated[int, In("[1, inf)")] = DEFAULT_EMB_DIM
    init_scale: Annotated[float, flatparams.INIT_SCALE] = 0.1
    beta: Annotated[float, In("[0, 1)")] = 0.9

    def __post_init__(self):
        check_fields(self)


@dataclass
class ReinforceResult:
    controller: ControllerState
    baseline: Baseline
    history: list  # of SampledArch, in sampling order
    invalid_count: int


def run_reinforce(
    cfg: ReinforceConfig,
    schedule: DecisionSchedule,
    seed: int,
    fitness,
    reward_fn=None,
) -> ReinforceResult:
    """Batched policy-gradient loop.

    Per iteration: sample `batch_size` rollouts, attach rewards, update the
    best reward so far, turn each reward into its utility (see `utility`),
    read the baseline, fold the batch-mean utility into the baseline, then
    take the ascent step on the utilities using the pre-update baseline
    value. The loop records nothing but its history of samples, each with
    its reward: the fitness pays for what it evaluates, and the caller
    reads the run's trace off that payment or off the history. A custom
    `reward_fn(sample)` replaces the fitness adapter (bandit probes);
    otherwise fitness supplies rewards via reward_of. `seed` drives the
    controller init and every sampling draw.
    """
    if reward_fn is None and fitness is None:
        raise ConfigError("need a fitness adapter or a reward function")
    controller = ControllerState.seeded(seed, cfg.hidden_size, cfg.emb_dim, cfg.init_scale)
    rng = random.Random(seed)
    baseline = Baseline(beta=cfg.beta)
    work = Workspace(schedule, cfg.hidden_size, cfg.emb_dim, cfg.batch_size)
    history = []
    invalid_count = 0
    best = 0.0

    for _ in range(cfg.iterations):
        batch = [sample(controller, schedule, rng) for _ in range(cfg.batch_size)]
        for s in batch:
            s.reward = reward_fn(s) if reward_fn is not None else reward_of(s, fitness)
            invalid_count += s.invalid
            history.append(s)
            if s.reward > best:
                best = s.reward
        utilities = [utility(s, best) for s in batch]
        b = baseline.read()
        baseline.update(sum(utilities) / len(batch))
        controller = reinforce_update(
            controller, schedule, batch, b, cfg.learning_rate, utilities, work
        )
        for s in batch:
            s.states = None  # only this batch's update reads them
    return ReinforceResult(controller, baseline, history, invalid_count)
