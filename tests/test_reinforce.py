"""Controller sampling, the policy-gradient estimator (exactness checked
against enumeration and finite differences on the T=1 bandit), the EMA
baseline, and the batched search loop."""

import itertools
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from cellsearch import cellspace, flatparams, reinforce
from cellsearch.cellspace import OpLabel, SpaceLimits
from cellsearch.errors import ConfigError, ShapeError
from cellsearch.oracle import (
    PaidQueries,
    SyntheticOracle,
    synth_record,
)
from cellsearch.predictor import PredictorFitness, RnnParams
from cellsearch.reinforce import (
    Baseline,
    ControllerState,
    MAX_STEPS,
    DecisionSchedule,
    ReinforceConfig,
    SampledArch,
    follow,
    logprob_and_grad,
    reinforce_update,
    reward_of,
    run_reinforce,
    sample,
    utility,
)

from conftest import central_differences, max_relative_error

OPTIMUM_HASH_5_9 = "e6f50a3dbee0bfeee91f33fa572fccd4"

BANDIT = DecisionSchedule((3,))
SCHEDULE_5_9 = DecisionSchedule.from_limits(SpaceLimits(5, 9))


def zero_controller(hidden_size=32, emb_dim=8):
    """Every parameter 0: the uniform policy."""
    size = flatparams.size(reinforce._shapes(hidden_size, emb_dim))
    return ControllerState.from_flat(np.zeros(size), hidden_size, emb_dim)


def bandit_terms(controller):
    """(log-probability, gradient) of each action of a single-ternary-step
    schedule, each along its own rollout."""
    rollouts = [follow(controller, BANDIT, (a,)) for a in range(3)]
    return list(zip(*logprob_and_grad(controller, BANDIT, rollouts)))


def bandit_probs(controller):
    """Action distribution of a single-ternary-step schedule."""
    return np.exp([lp for lp, _ in bandit_terms(controller)])


# ---------------------------------------------------------------------------
# schedule


def test_schedule_default_space_has_26_steps():
    sched = DecisionSchedule.from_limits(SpaceLimits(7, 9))
    assert sched.num_steps == 26
    assert sched.arities == (2,) * 21 + (3,) * 5
    # edge step k decides the k-th row-major pair: step 0 is (0,1), step 5
    # is (0,6), IN->OUT, the one edge of the 2-vertex cell, and step 20 is (5,6)
    def only(step):
        return sched.assemble(tuple(int(k == step) for k in range(21)) + (0,) * 5)

    cell = only(5)
    assert (cell.num_vertices, cell.edges, cell.ops) == (2, ((0, 1),), (OpLabel.IN, OpLabel.OUT))
    assert only(0) is None and only(20) is None


def test_schedule_5_9_has_13_steps():
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    assert sched.num_steps == 13
    assert sched.arities == (2,) * 10 + (3,) * 3


@pytest.mark.parametrize(
    "actions, wording",
    [
        ((1, 1.5), "action 1.5 at step 1{of} is not an int in range(3)"),
        ((1, True), "action True at step 1{of} is not an int in range(3)"),
        ((1, -1), "action -1 at step 1{of} is not an int in range(3)"),
        ((1, 3), "action 3 at step 1{of} is not an int in range(3)"),
        ((1, np.int64(1)), f"action {np.int64(1)!r} at step 1{{of}} is not an int in range(3)"),
        ((2, 0), "action 2 at step 0{of} is not an int in range(2)"),
        ((1,), "expected 2 actions{of}, got 1"),
    ],
    ids=["float", "bool", "negative", "past-arity", "numpy-int", "past-binary", "length"],
)
def test_follow_and_logprob_and_grad_refuse_an_action_alike(actions, wording):
    # one rule behind both entry points, applied before either pass: a
    # controller without weights would fail in one with another error.
    # logprob_and_grad used to score 1.5, True and np.int64(1) as action 1.
    controller = zero_controller(hidden_size=4, emb_dim=2)
    schedule = DecisionSchedule((2, 3))
    good = follow(controller, schedule, (1, 2))
    weightless = replace(controller, W_e=None, W_h=None)
    with pytest.raises(ShapeError, match="^" + re.escape(wording.format(of="")) + "$"):
        follow(weightless, schedule, actions)
    of_rollout_1 = re.escape(wording.format(of=" of rollout 1"))
    with pytest.raises(ShapeError, match="^" + of_rollout_1 + "$"):
        logprob_and_grad(weightless, schedule, [good, replace(good, actions=actions)])


def test_assemble_chain_is_the_known_optimum():
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    # pairs row-major: (0,1),(0,2),(0,3),(0,4),(1,2),(1,3),(1,4),(2,3),(2,4),(3,4)
    edge_bits = [0] * 10
    # the optimum is the chain (0,1),(1,2),(2,3),(3,4) with shortcuts (0,4) and (2,4)
    for idx in (0, 3, 4, 7, 8, 9):
        edge_bits[idx] = 1
    spec = sched.assemble(tuple(edge_bits) + (0, 0, 0))
    assert spec is not None
    assert cellspace.canonical_hash(spec) == OPTIMUM_HASH_5_9
    assert all(op is OpLabel.CONV3X3 for op in spec.ops[1:-1])


def test_assemble_prunes_dormant_vertices():
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    # only the direct edge (0,4): interior vertices all dormant
    actions = (0, 0, 0, 1, 0, 0, 0, 0, 0, 0) + (1, 2, 0)
    spec = sched.assemble(actions)
    assert spec is not None
    assert spec.num_vertices == 2
    assert spec.edges == ((0, 1),)


def test_assemble_no_path_is_invalid():
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    assert sched.assemble((0,) * 10 + (0, 0, 0)) is None


def test_assemble_edge_budget_is_invalid():
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    # all ten edges survive pruning, exceeding the 9-edge budget
    assert sched.assemble((1,) * 10 + (0, 0, 0)) is None


@pytest.mark.parametrize(
    "limits, classes, invalid", [((4, 9), 91, 153), ((5, 9), 2532, 4968)]
)
def test_assembly_loses_no_cell(limits, classes, invalid):
    # every action sequence, assembled, covers exactly the enumerated classes
    limits = SpaceLimits(*limits)
    sched = DecisionSchedule.from_limits(limits)
    assembled = set()
    n_invalid = 0
    for actions in itertools.product(*(range(a) for a in sched.arities)):
        spec = sched.assemble(actions)
        if spec is None:
            n_invalid += 1
        else:
            assembled.add(cellspace.canonical_hash(spec))
    assert n_invalid == invalid
    assert len(assembled) == classes
    assert assembled == {
        cellspace.canonical_hash(s) for s in cellspace.enumerate_space(limits)
    }


def test_assembly_builds_only_the_cell_it_keeps(spec_builds):
    # an invalid rollout is decided on its raw edges and builds no ModelSpec;
    # a rollout the phenotype memo answers returns a cell built before
    cellspace._phenotype_memo.cache_clear()
    controller = zero_controller(hidden_size=4, emb_dim=2)
    sched = DecisionSchedule.from_limits(SpaceLimits(7, 9))
    rng = random.Random(0)
    seen = {True: 0, False: 0}
    returned = {}  # held, so that no id is reused
    for _ in range(300):
        s = sample(controller, sched, rng)
        if s.spec is not None:
            returned[id(s.spec)] = s.spec
        assert spec_builds[0] == len(returned)
        seen[s.spec is None] += 1
    assert min(seen.values()) > 50, seen


def test_schedule_longer_than_the_step_biases_is_refused():
    # the largest space's schedule fills the step biases; SpaceLimits
    # refuses any larger space before a schedule is built
    assert DecisionSchedule.from_limits(SpaceLimits(7, 9)).num_steps == MAX_STEPS == 26
    with pytest.raises(ValueError, match=r"\[2, 7\]"):
        DecisionSchedule.from_limits(SpaceLimits(8, 9))


def test_schedule_without_limits_past_the_step_biases_is_refused():
    # a bandit schedule has no limits to cap it, so its length is checked
    # when it is built, not by an IndexError inside sample
    sample(zero_controller(), DecisionSchedule((2,) * MAX_STEPS), random.Random(0))
    with pytest.raises(ConfigError, match=r"27 decisions exceed the controller's 26 steps"):
        DecisionSchedule((2,) * (MAX_STEPS + 1))


def test_schedule_validation():
    with pytest.raises(ConfigError):
        DecisionSchedule((2, 4))
    with pytest.raises(ConfigError):
        DecisionSchedule((2, 3), SpaceLimits(4, 9))
    with pytest.raises(ConfigError):
        BANDIT.assemble((0,))


# ---------------------------------------------------------------------------
# sampling


def test_sample_uniform_at_zero_init():
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    controller = zero_controller(hidden_size=4, emb_dim=2)
    rng = random.Random(123)
    n = 10_000
    counts = np.zeros((sched.num_steps, 3))
    for _ in range(n):
        s = sample(controller, sched, rng)
        for t, a in enumerate(s.actions):
            counts[t, a] += 1
    for t, arity in enumerate(sched.arities):
        p = 1.0 / arity
        sigma = math.sqrt(p * (1 - p) / n)
        for a in range(arity):
            assert abs(counts[t, a] / n - p) < 3 * sigma, (t, a, counts[t, a] / n)


def _rollout_reference(c, schedule, rng=None, given=None, drawn=None):
    """Frozen reference: the forward pass `sample` (drawing from `rng`) and
    `follow` (taking `given`) ran before the step loop moved onto Python
    floats: a numpy softmax per step and the inverse-CDF draw, one
    `rng.random()` a step. Each step's probabilities are appended to
    `drawn`. Every earlier pinned digest was made with it."""
    inputs = c.emb @ c.W_e.T + c.b_h
    heads = (None, None, c.W2, c.W3)
    hs = np.zeros((schedule.num_steps + 1, c.hidden_size))
    h = hs[0]
    row = 0
    actions = []
    for t, arity in enumerate(schedule.arities):
        h = np.tanh(inputs[row] + c.W_h.dot(h), out=hs[t + 1])
        z = heads[arity].dot(h) + c.b_step[t, :arity]
        z -= max(z.tolist())
        logp = z - math.log(sum(np.exp(z).tolist()))
        p = np.exp(logp).tolist()
        if drawn is not None:
            drawn.append(p)
        if given is not None:
            action = given[t]
        else:
            r, acc, action = rng.random(), 0.0, arity - 1
            for a, pa in enumerate(p):
                acc += pa
                if r < acc:
                    action = a
                    break
        actions.append(action)
        row = (1 + action) if arity == 2 else (3 + action)
    spec = schedule.assemble(actions) if schedule.limits is not None else None
    return SampledArch(tuple(actions), spec, schedule.limits is not None and spec is None, states=hs)


def _assert_same_rollout(s, ref):
    assert s.actions == ref.actions
    assert s.spec == ref.spec and s.invalid == ref.invalid
    assert s.states.shape == ref.states.shape
    assert np.array_equal(_bits(s.states), _bits(ref.states))  # signed zeros too


@pytest.mark.parametrize("hidden", [1, 2, 3, 4, 8, 32])
def test_sample_and_follow_equal_the_frozen_reference_bit_for_bit(hidden):
    # From near-uniform logits to saturated ones (at hidden 32 and scale 10
    # about 40% of steps give one action probability 1.0), in every space
    # and at tiny hidden sizes: actions, every state bit, the cell, and the
    # rng's end state.
    for limits in ((4, 9), (5, 9), (7, 9), (7, 4)):
        sched = DecisionSchedule.from_limits(SpaceLimits(*limits))
        for init_scale in (0.01, 0.3, 2.0, 10.0):
            emb = 1 + hidden % 8
            controller = ControllerState.seeded(hidden, hidden, emb, init_scale)
            rng, twin = random.Random(hidden), random.Random(hidden)
            for _ in range(12):
                s = sample(controller, sched, rng)
                ref = _rollout_reference(controller, sched, twin)
                _assert_same_rollout(s, ref)
                _assert_same_rollout(follow(controller, sched, s.actions), ref)
                assert rng.getstate() == twin.getstate()
    # a schedule without limits: no cell, interleaved arities
    sched = DecisionSchedule((2, 3, 2, 3, 3, 2))
    controller = ControllerState.seeded(9, hidden, 2, init_scale=0.8)
    rng, twin = random.Random(9), random.Random(9)
    for _ in range(20):
        s = sample(controller, sched, rng)
        ref = _rollout_reference(controller, sched, twin)
        _assert_same_rollout(s, ref)
        assert s.spec is None and not s.invalid
    assert rng.getstate() == twin.getstate()


class _AtTheEdges:
    """A generator stand-in for the frozen reference: each step's uniform
    lies on an edge of that step's CDF, exactly p0 or p0 + p1 or the float
    just below it, so that a probability one ulp off picks another action.
    `values` keeps them for a replay."""

    def __init__(self, drawn, seed):
        self.drawn, self.pick, self.values = drawn, random.Random(seed), []

    def random(self):
        p = self.drawn[-1]
        edge = p[0] if len(p) == 2 or self.pick.random() < 0.5 else p[0] + p[1]
        r = edge if self.pick.random() < 0.5 else math.nextafter(edge, 0.0)
        self.values.append(r)
        return r


class _Replay:
    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("hidden", [1, 3, 8, 32])
def test_sample_draws_on_the_frozen_references_cdf_edges(hidden):
    # `sample` returns no probabilities, and a uniform almost never falls
    # within an ulp of a CDF edge, so uniforms placed on the edges are what
    # shows a last-bit difference in a step's probabilities.
    for limits in ((4, 9), (7, 9)):
        sched = DecisionSchedule.from_limits(SpaceLimits(*limits))
        for init_scale in (0.01, 0.5, 10.0):
            controller = ControllerState.seeded(hidden, hidden, 3, init_scale)
            for seed in range(15):
                drawn = []
                edges = _AtTheEdges(drawn, seed)
                ref = _rollout_reference(controller, sched, edges, drawn=drawn)
                _assert_same_rollout(sample(controller, sched, _Replay(edges.values)), ref)


def test_sample_logprob_matches_replay():
    # on-policy: the probabilities each step is drawn from (recorded by the
    # frozen reference, whose draws `sample` repeats bit for bit) are those
    # the score of the sampled actions is taken under
    controller = ControllerState.seeded(4, hidden_size=8, emb_dim=3, init_scale=0.5)
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    rng, twin = random.Random(9), random.Random(9)
    for _ in range(50):
        drawn = []
        s = sample(controller, sched, rng)
        assert s.actions == _rollout_reference(controller, sched, twin, drawn=drawn).actions
        (lp,), _ = logprob_and_grad(controller, sched, [s])
        _, _, ref_probs = _logprob_and_grad_by_step(controller, sched, s.actions)
        assert all(0.0 < p[a] <= 1.0 for p, a in zip(drawn, s.actions))
        assert abs(sum(math.log(p[a]) for p, a in zip(drawn, s.actions)) - lp) < 1e-12
        for p, ref in zip(drawn, ref_probs, strict=True):
            assert np.allclose(p, ref, rtol=0, atol=1e-15)


class _CountingRandom(random.Random):
    """Counts `random()` calls, and records every other public attribute
    looked up on it."""

    def __init__(self, seed):
        self.other = []
        super().__init__(seed)
        self.draws, self.other = 0, []

    def random(self):
        self.draws += 1
        return super().random()

    def __getattribute__(self, name):
        if not name.startswith("_") and name not in ("random", "draws", "other"):
            object.__getattribute__(self, "other").append(name)
        return super().__getattribute__(name)


def test_sample_draws_one_uniform_a_step_and_follow_none(monkeypatch):
    # The determinism contract a batched sampler must keep: rollout after
    # rollout, each step of `sample` takes the next `rng.random()`, and
    # nothing else touches the generator; `follow` draws nothing.
    controller = ControllerState.seeded(3, hidden_size=8, emb_dim=3, init_scale=0.5)
    for sched in (BANDIT, SCHEDULE_5_9, DecisionSchedule.from_limits(SpaceLimits(7, 9))):
        rng = _CountingRandom(5)
        batch = [sample(controller, sched, rng) for _ in range(10)]
        assert rng.draws == 10 * sched.num_steps
        assert rng.other == []

        def refuse(*args):
            raise AssertionError("follow drew a random number")

        with monkeypatch.context() as m:
            for name in ("random", "getrandbits"):
                m.setattr(random.Random, name, refuse)
                m.setattr(random, name, refuse)
            for s in batch:
                follow(controller, sched, s.actions)


def test_sample_deterministic():
    controller = ControllerState.seeded(1, hidden_size=8, emb_dim=3)
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    a = sample(controller, sched, random.Random(7)).actions
    b = sample(controller, sched, random.Random(7)).actions
    assert a == b


def test_sample_invalid_flag_matches_spec_presence():
    controller = zero_controller(hidden_size=4, emb_dim=2)
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    rng = random.Random(0)
    seen_invalid = seen_valid = False
    for _ in range(300):
        s = sample(controller, sched, rng)
        assert s.invalid == (s.spec is None)
        if s.invalid:
            seen_invalid = True
        else:
            seen_valid = True
            assert cellspace.validate(s.spec, SpaceLimits(5, 9)).valid
    assert seen_invalid and seen_valid


# ---------------------------------------------------------------------------
# rewards


def test_reward_invalid_is_free():
    paid = PaidQueries(SyntheticOracle())
    s = SampledArch((), None, invalid=True)
    assert reward_of(s, paid) == 0.0
    assert paid.sim_seconds == 0.0


def test_reward_oracle_charges_train_time(two_vertex):
    paid = PaidQueries(SyntheticOracle())
    s = SampledArch((), two_vertex, invalid=False)
    record = synth_record(two_vertex, paid.oracle.params)
    assert reward_of(s, paid) == record.val_accuracy
    assert paid.sim_seconds == record.train_time_s


def test_reward_predictor_is_free(two_vertex):
    fitness = PredictorFitness(RnnParams.seeded(0))
    s = SampledArch((), two_vertex, invalid=False)
    r = reward_of(s, fitness)
    assert 0.0 < r < 1.0


def test_reward_without_spec_or_marker_is_an_error():
    s = SampledArch((0,), None, invalid=False)
    with pytest.raises(ConfigError):
        reward_of(s, PaidQueries(SyntheticOracle()))


# ---------------------------------------------------------------------------
# gradients


def test_logprob_gradient_matches_finite_differences():
    rng = random.Random(5)
    worst = 0.0
    for draw in range(12):
        hidden = rng.choice([3, 4])
        emb = rng.choice([2, 3])
        sched = (
            BANDIT
            if draw % 3 == 0
            else DecisionSchedule.from_limits(SpaceLimits(4, 9))
        )
        base = ControllerState.seeded(draw, hidden, emb, init_scale=0.6)
        actions = tuple(
            rng.randrange(arity) for arity in sched.arities
        )
        theta0 = base.flatten()

        def f(theta):
            c = ControllerState.from_flat(theta, hidden, emb)
            (lp,), _ = logprob_and_grad(c, sched, [follow(c, sched, actions)])
            return lp

        _, (grad,) = logprob_and_grad(base, sched, [follow(base, sched, actions)])
        numeric = central_differences(f, theta0)
        worst = max(worst, max_relative_error(grad, numeric))
    assert worst <= 1e-4, f"worst relative error {worst}"


def _logprob_and_grad_by_step(controller, sched, actions):
    """Reference: the forward pass and backpropagation one step at a time.
    Returns (logprob, gradient, each step's action probabilities)."""
    c = controller
    hs, rows, probs, logprob = [np.zeros(c.hidden_size)], [], [], 0.0
    row = 0
    for t, arity in enumerate(sched.arities):
        rows.append(row)
        hs.append(np.tanh(c.W_e @ c.emb[row] + c.W_h @ hs[-1] + c.b_h))
        W = c.W2 if arity == 2 else c.W3
        z = W @ hs[-1] + c.b_step[t, :arity]
        logp = z - z.max() - math.log(np.exp(z - z.max()).sum())
        probs.append(np.exp(logp))
        logprob += logp[actions[t]]
        row = (1 + actions[t]) if arity == 2 else (3 + actions[t])
    g = zero_controller(c.hidden_size, c.emb_dim)
    dh_next = np.zeros(c.hidden_size)
    for t in reversed(range(sched.num_steps)):
        arity = sched.arities[t]
        W, gW = (c.W2, g.W2) if arity == 2 else (c.W3, g.W3)
        dlogits = -probs[t]
        dlogits[actions[t]] += 1.0
        gW += np.outer(dlogits, hs[t + 1])
        g.b_step[t, :arity] += dlogits
        da = (W.T @ dlogits + dh_next) * (1.0 - hs[t + 1] ** 2)
        g.W_e += np.outer(da, c.emb[rows[t]])
        g.emb[rows[t]] += c.W_e.T @ da
        g.W_h += np.outer(da, hs[t])
        g.b_h += da
        dh_next = c.W_h.T @ da
    return logprob, g.flatten(), probs


def test_logprob_and_grad_match_step_by_step_reference():
    rng = random.Random(8)
    sched = DecisionSchedule.from_limits(SpaceLimits(7, 9))
    for draw in range(20):
        controller = ControllerState.seeded(draw, hidden_size=6, emb_dim=3, init_scale=0.7)
        actions = tuple(rng.randrange(arity) for arity in sched.arities)
        (lp,), (grad,) = logprob_and_grad(controller, sched, [follow(controller, sched, actions)])
        ref_lp, ref_grad, _ = _logprob_and_grad_by_step(controller, sched, actions)
        assert abs(lp - ref_lp) < 1e-12
        assert np.allclose(grad, ref_grad, rtol=0, atol=1e-12)


def _logprob_and_grad_one(controller, schedule, rollout):
    """Frozen reference: the per-rollout kernel the batch kernel replaced,
    one rollout per call. Its gradient rows are what every earlier pinned
    digest was made with."""
    c = controller
    T = schedule.num_steps
    actions, hs = rollout.actions, rollout.states
    rows = [0] + [
        (1 + a) if arity == 2 else (3 + a) for arity, a in zip(schedule.arities, actions)
    ]
    rows = rows[:T]
    H = hs[1:]

    g = zero_controller(c.hidden_size, c.emb_dim)
    dH = np.zeros_like(H)
    logprob = 0.0
    chosen = np.asarray(actions)
    for arity, steps in schedule.steps_by_arity:
        W, gW = (c.W2, g.W2) if arity == 2 else (c.W3, g.W3)
        logits = H[steps] @ W.T + c.b_step[steps, :arity]
        logp = logits - logits.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        picked = (np.arange(len(steps)), chosen[steps])
        logprob += float(logp[picked].sum())
        dlogits = -np.exp(logp)
        dlogits[picked] += 1.0
        gW[...] = dlogits.T @ H[steps]
        g.b_step[steps, :arity] = dlogits
        dH[steps] = dlogits @ W

    dA = np.zeros_like(H)
    dh_next = np.zeros(c.hidden_size)
    for dh, dtanh, da in zip(dH[::-1], 1.0 - H[::-1] ** 2, dA[::-1]):
        np.multiply(dh + dh_next, dtanh, out=da)
        dh_next = da.dot(c.W_h)
    g.W_e[...] = dA.T @ c.emb[rows]
    np.add.at(g.emb, rows, dA @ c.W_e)
    g.W_h[...] = dA.T @ hs[:-1]
    g.b_h[...] = dA.sum(axis=0)
    return logprob, g.flatten()


def _bits(x):
    """The raw bits of a float array, so that 0.0 and -0.0 differ."""
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("hidden", [1, 2, 3, 4, 8, 32])
def test_batch_kernel_equals_the_per_rollout_reference_bit_for_bit(hidden):
    # Each rollout's row of one stacked backward pass carries the bits of
    # that rollout's lone pass: logprobs and every gradient entry, signed
    # zeros included, at every space and at tiny hidden sizes, where numpy
    # and BLAS pick their summation order by layout.
    for limits in ((4, 9), (5, 9), (7, 9)):
        sched = DecisionSchedule.from_limits(SpaceLimits(*limits))
        for seed in range(3):
            controller = ControllerState.seeded(seed, hidden, 3, init_scale=0.5)
            rng = random.Random(seed)
            batch = [sample(controller, sched, rng) for _ in range(20)]
            lps, grads = logprob_and_grad(controller, sched, batch)
            assert lps.shape == (20,) and grads.shape == (20, controller.flatten().size)
            for s, lp, g in zip(batch, lps, grads):
                ref_lp, ref_g = _logprob_and_grad_one(controller, sched, s)
                assert _bits(lp) == _bits(ref_lp)
                assert np.array_equal(_bits(g), _bits(ref_g))
    # interleaved arities, and no rollouts at all
    sched = DecisionSchedule((2, 3, 2, 3, 3, 2))
    controller = ControllerState.seeded(9, hidden, 2, init_scale=0.8)
    rng = random.Random(9)
    batch = [sample(controller, sched, rng) for _ in range(7)]
    lps, grads = logprob_and_grad(controller, sched, batch)
    for s, lp, g in zip(batch, lps, grads):
        ref_lp, ref_g = _logprob_and_grad_one(controller, sched, s)
        assert _bits(lp) == _bits(ref_lp)
        assert np.array_equal(_bits(g), _bits(ref_g))
    lps, grads = logprob_and_grad(controller, sched, [])
    assert lps.shape == (0,) and grads.shape == (0, controller.flatten().size)


def _reinforce_update_one_by_one(controller, schedule, batch, baseline, learning_rate, utilities):
    """Frozen reference: the update as a loop over the per-rollout kernel,
    skipping the samples whose advantage is zero."""
    total = np.zeros(controller.flatten().size)
    for s, u in zip(batch, utilities):
        advantage = u - baseline
        if advantage == 0.0:
            continue
        _, g = _logprob_and_grad_one(controller, schedule, s)
        total += advantage * g
    theta = controller.flatten() + learning_rate * total / len(batch)
    return ControllerState.from_flat(theta, controller.hidden_size, controller.emb_dim)


@pytest.mark.parametrize("hidden", [1, 2, 3, 4, 8, 32])
def test_update_equals_the_per_rollout_reference_loop_bit_for_bit(hidden):
    # Batches with zero-advantage samples (utility equal to the baseline,
    # as an invalid sample's 0 is against a baseline of 0) and a batch with
    # none left: the stacked pass leaves every parameter bit as the loop
    # did, update after update.
    for limits in ((4, 9), (5, 9), (7, 9)):
        sched = DecisionSchedule.from_limits(SpaceLimits(*limits))
        controller = ControllerState.seeded(hidden, hidden, 3, init_scale=0.5)
        rng = random.Random(hidden)
        for step in range(6):
            batch = [sample(controller, sched, rng) for _ in range(10)]
            b = 0.0 if step % 2 else 0.25
            utilities = [b if rng.random() < 0.3 else rng.random() for _ in batch]
            if step == 5:
                utilities = [b] * len(batch)
            new = reinforce_update(controller, sched, batch, b, 0.3, utilities)
            ref = _reinforce_update_one_by_one(controller, sched, batch, b, 0.3, utilities)
            assert np.array_equal(_bits(new.flatten()), _bits(ref.flatten()))
            controller = new


def _replayed_states(c, sched, actions):
    """An independent replay of the hidden states from the actions alone:
    every step's input row in one product, then the recurrence."""
    T = sched.num_steps
    rows = [0] + [
        (1 + a) if arity == 2 else (3 + a) for arity, a in zip(sched.arities, actions)
    ]
    inputs = c.emb[rows[:T]] @ c.W_e.T + c.b_h
    hs = np.zeros((T + 1, c.hidden_size))
    for t in range(T):
        hs[t + 1] = np.tanh(inputs[t] + c.W_h @ hs[t])
    return hs


def test_kept_states_equal_the_replayed_ones_bit_for_bit():
    # The gradient backpropagates through the states `sample` kept instead
    # of recomputing them. Over 300 rollouts at (7,9) with a hidden-32
    # controller, that moves no bit of the states, of the gradients, or of
    # the parameters after one update per batch of 20.
    sched = DecisionSchedule.from_limits(SpaceLimits(7, 9))
    controller = ControllerState.seeded(12, hidden_size=32, emb_dim=8)
    rng = random.Random(12)
    for _ in range(15):
        batch = [sample(controller, sched, rng) for _ in range(20)]
        replayed = [
            replace(s, states=_replayed_states(controller, sched, s.actions)) for s in batch
        ]
        for s, r in zip(batch, replayed):
            assert s.states.shape == (27, 32)
            assert np.array_equal(s.states, r.states)
            (kept_lp,), (kept_grad,) = logprob_and_grad(controller, sched, [s])
            (replay_lp,), (replay_grad,) = logprob_and_grad(controller, sched, [r])
            assert kept_lp == replay_lp and np.array_equal(kept_grad, replay_grad)
        utilities = [rng.random() for _ in batch]
        kept, again = (
            reinforce_update(controller, sched, b, 0.5, 0.5, utilities)
            for b in (batch, replayed)
        )
        assert np.array_equal(kept.flatten(), again.flatten())
        controller = kept


def test_follow_takes_the_given_actions():
    controller = ControllerState.seeded(2, hidden_size=8, emb_dim=3, init_scale=0.5)
    sched = DecisionSchedule.from_limits(SpaceLimits(5, 9))
    rng = random.Random(4)
    for _ in range(20):
        s = sample(controller, sched, rng)
        f = follow(controller, sched, s.actions)
        assert (f.actions, f.spec) == (s.actions, s.spec)
        assert np.array_equal(f.states, s.states)
        lps, grads = logprob_and_grad(controller, sched, [s, f])
        assert lps[0] == lps[1] and np.array_equal(grads[0], grads[1])


def test_logprob_rejects_wrong_length():
    controller = ControllerState.seeded(0, 4, 2)
    with pytest.raises(ShapeError):
        follow(controller, BANDIT, (0, 1))
    # a rollout of another schedule is refused too
    two_steps = follow(controller, DecisionSchedule((3, 3)), (0, 1))
    with pytest.raises(ShapeError, match=r"^expected 1 actions of rollout 0, got 2$"):
        logprob_and_grad(controller, BANDIT, [two_steps])


@pytest.mark.parametrize("step", [2, 6])  # a binary step, a ternary step
def test_follow_refuses_an_action_outside_its_steps_range(step):
    # before any forward pass: a controller without weights would fail in
    # one with another error
    sched = DecisionSchedule.from_limits(SpaceLimits(4, 9))
    arity = sched.arities[step]
    assert arity == (2 if step < 6 else 3)
    controller = replace(ControllerState.seeded(0, 4, 2), W_e=None, W_h=None)
    for bad in (-1, arity, 1.0, True):
        actions = [0] * sched.num_steps
        actions[step] = bad
        with pytest.raises(
            ShapeError, match=re.escape(f"action {bad!r} at step {step} is not an int in range({arity})")
        ):
            follow(controller, sched, tuple(actions))


def test_from_flat_rejects_non_finite_parameters():
    # every update unflattens through from_flat, so a diverged step stops here
    theta = ControllerState.seeded(0, 4, 2).flatten()
    assert ControllerState.from_flat(theta, 4, 2).flatten().tolist() == theta.tolist()
    # so does a vector of the wrong length, short or long
    for bad in (theta[:-1], np.append(theta, 0.0)):
        with pytest.raises(ShapeError, match="flat vector"):
            ControllerState.from_flat(bad, 4, 2)
    theta[7] = np.nan
    with pytest.raises(ShapeError, match="non-finite"):
        ControllerState.from_flat(theta, 4, 2)
    theta[7] = np.inf
    with pytest.raises(ShapeError, match="non-finite"):
        ControllerState.from_flat(theta, 4, 2)


# ---------------------------------------------------------------------------
# the estimator on the enumerable bandit


def test_update_is_zero_when_rewards_equal_baseline():
    controller = ControllerState.seeded(3, hidden_size=4, emb_dim=2)
    rng = random.Random(1)
    batch = [sample(controller, BANDIT, rng) for _ in range(4)]
    for s in batch:
        s.reward = 0.7
    updated = reinforce_update(
        controller, BANDIT, batch, 0.7, learning_rate=0.5,
        utilities=[s.reward for s in batch],
    )
    assert np.array_equal(updated.flatten(), controller.flatten())


def test_baseline_term_is_analytically_zero():
    # sum_a pi(a) grad log pi(a) = 0 for any controller: enumerate the T=1
    # bandit exactly.
    for seed in range(5):
        controller = ControllerState.seeded(seed, hidden_size=5, emb_dim=3, init_scale=0.8)
        total = np.zeros(controller.flatten().size)
        for lp, g in bandit_terms(controller):
            total += math.exp(lp) * g
        assert np.max(np.abs(total)) < 1e-10


def test_monte_carlo_update_matches_exact_expectation():
    # rewards fixed (1, 0, 0), b = 0: exact update direction is
    # sum_a pi(a) (R_a - b) grad log pi(a); the MC mean over 10,000
    # single-sample draws must agree within 3 sigma coordinate-wise.
    controller = zero_controller(hidden_size=3, emb_dim=2)
    rewards = (1.0, 0.0, 0.0)
    probs = bandit_probs(controller)
    grads = [g for _, g in bandit_terms(controller)]
    exact = sum(probs[a] * rewards[a] * grads[a] for a in range(3))

    n = 10_000
    rng = random.Random(42)
    draws = np.empty((n, exact.size))
    for i in range(n):
        s = sample(controller, BANDIT, rng)
        draws[i] = rewards[s.actions[0]] * grads[s.actions[0]]
    mc = draws.mean(axis=0)
    sigma = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mc - exact) <= 3 * sigma + 1e-12)
    # and the expected direction raises the probability of the rewarded
    # action: one exact ascent step must increase P(action 0)
    stepped = ControllerState.from_flat(controller.flatten() + 0.1 * exact, 3, 2)
    assert bandit_probs(stepped)[0] > probs[0]


def test_ema_baseline_reduces_estimator_variance():
    # Fixed rewards, fixed controller: compare the per-batch gradient
    # estimate with and without the EMA baseline on identical action draws.
    controller = zero_controller(hidden_size=3, emb_dim=2)
    rewards = (1.0, 0.0, 0.0)
    grads = [g for _, g in bandit_terms(controller)]
    m = 4
    n_batches = 10_000
    rng = random.Random(7)
    baseline = Baseline()
    with_b = np.empty((n_batches, grads[0].size))
    without_b = np.empty_like(with_b)
    for i in range(n_batches):
        actions = [sample(controller, BANDIT, rng).actions[0] for _ in range(m)]
        rs = [rewards[a] for a in actions]
        b = baseline.read()
        baseline.update(sum(rs) / m)
        with_b[i] = sum((r - b) * grads[a] for r, a in zip(rs, actions)) / m
        without_b[i] = sum(r * grads[a] for r, a in zip(rs, actions)) / m
    var_with = with_b.var(axis=0).sum()
    var_without = without_b.var(axis=0).sum()
    assert var_with < var_without


def test_utility_update_matches_exact_expectation():
    # The search loop weighs each sample by exp(10 (R - best)). With
    # rewards (0.8, 0.75, 0.6), best 0.8 and b = 0.5, the exact update
    # direction is sum_a pi(a) (exp(10 (R_a - 0.8)) - b) grad log pi(a);
    # the MC mean of single-sample updates must agree within 3 sigma.
    controller = ControllerState.seeded(2, hidden_size=3, emb_dim=2, init_scale=0.8)
    rewards = (0.8, 0.75, 0.6)
    b = 0.5
    probs = bandit_probs(controller)
    grads = [g for _, g in bandit_terms(controller)]
    exact = sum(
        probs[a] * (math.exp(10.0 * (rewards[a] - 0.8)) - b) * grads[a]
        for a in range(3)
    )

    n = 10_000
    rng = random.Random(17)
    theta = controller.flatten()
    draws = np.empty((n, exact.size))
    for i in range(n):
        s = sample(controller, BANDIT, rng)
        s.reward = rewards[s.actions[0]]
        stepped = reinforce_update(
            controller, BANDIT, [s], b, learning_rate=1.0,
            utilities=[utility(s, 0.8)],
        )
        draws[i] = stepped.flatten() - theta
    mc = draws.mean(axis=0)
    sigma = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mc - exact) <= 3 * sigma + 1e-12)
    stepped = ControllerState.from_flat(theta + 0.1 * exact, 3, 2)
    assert bandit_probs(stepped)[0] > probs[0]


def test_utility_of_invalid_sample_is_zero():
    s = SampledArch((0,), None, invalid=True)
    assert utility(s, 0.8) == 0.0


def test_run_replays_the_utility_update_by_hand():
    # Two iterations of the loop against an independent replay: utilities
    # exp(10 (R - best so far)), an EMA baseline over batch-mean utilities
    # that reads 0 on the first batch, and one plain gradient step each.
    rewards = (0.9, 0.5, 0.2)
    cfg = ReinforceConfig(batch_size=3, iterations=2, learning_rate=0.3,
                          hidden_size=3, emb_dim=2, init_scale=0.5)
    res = run_reinforce(
        cfg, BANDIT, 5, None, reward_fn=lambda s: rewards[s.actions[0]],
    )

    controller = ControllerState.seeded(5, 3, 2, 0.5)
    rng = random.Random(5)
    best = 0.0
    b = 0.0
    for it in range(2):
        actions = [sample(controller, BANDIT, rng).actions for _ in range(3)]
        rs = [rewards[a[0]] for a in actions]
        best = max([best] + rs)
        us = [math.exp(10.0 * (r - best)) for r in rs]
        step = sum(
            (u - b) * logprob_and_grad(controller, BANDIT, [follow(controller, BANDIT, a)])[1][0]
            for u, a in zip(us, actions)
        )
        b = sum(us) / 3 if it == 0 else 0.9 * b + 0.1 * sum(us) / 3
        controller = ControllerState.from_flat(
            controller.flatten() + 0.3 * step / 3, 3, 2
        )
    assert np.allclose(res.controller.flatten(), controller.flatten(), rtol=0, atol=1e-12)
    assert res.baseline.read() == pytest.approx(b, abs=1e-15)


# ---------------------------------------------------------------------------
# baseline bookkeeping


def test_baseline_initialization_and_ema():
    b = Baseline()
    assert b.read() == 0.0 and b.value is None
    b.update(0.8)
    assert b.read() == 0.8 and b.value is not None
    b.update(0.6)
    assert abs(b.read() - 0.78) < 1e-15


def test_baseline_converges_to_constant_stream():
    b = Baseline()
    b.update(0.2)
    gaps = []
    for _ in range(50):
        b.update(0.9)
        gaps.append(abs(0.9 - b.read()))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01


def test_baseline_stays_within_reward_hull():
    b = Baseline()
    rng = random.Random(3)
    lo, hi = 1.0, 0.0
    for _ in range(200):
        r = rng.random()
        lo, hi = min(lo, r), max(hi, r)
        b.update(r)
        assert lo <= b.read() <= hi


# ---------------------------------------------------------------------------
# the search loop


def test_run_zero_iterations_is_a_no_op():
    cfg = ReinforceConfig(iterations=0)
    paid = PaidQueries(SyntheticOracle())
    res = run_reinforce(cfg, SCHEDULE_5_9, 3, paid)
    assert len(paid.trace.rows) == 0
    assert res.history == [] and res.invalid_count == 0
    assert paid.sim_seconds == 0.0
    fresh = ControllerState.seeded(3, cfg.hidden_size, cfg.emb_dim, cfg.init_scale)
    assert np.array_equal(res.controller.flatten(), fresh.flatten())


def test_run_oracle_mode_bookkeeping():
    # the paid log holds one row per distinct class the valid samples hold
    cfg = ReinforceConfig(batch_size=5, iterations=20)
    paid = PaidQueries(SyntheticOracle())
    res = run_reinforce(cfg, SCHEDULE_5_9, 1, paid)
    assert len(res.history) == 100
    assert res.invalid_count == sum(s.invalid for s in res.history)
    valid = [s for s in res.history if not s.invalid]
    assert len(paid.trace.rows) == len({cellspace.canonical_hash(s.spec) for s in valid})
    assert len(paid.trace.rows) + paid.memo_hits == len(valid)
    assert paid.trace.rows[-1].best == max(s.reward for s in res.history)
    assert paid.sim_seconds > 0
    assert res.baseline.value is not None


def test_run_history_keeps_no_hidden_states():
    # each batch's states serve only its update; kept in the history they
    # would add a (T+1, hidden) array per sample to a run's memory
    cfg = ReinforceConfig(batch_size=5, iterations=4)
    res = run_reinforce(cfg, SCHEDULE_5_9, 1, PaidQueries(SyntheticOracle()))
    assert len(res.history) == 20
    assert all(s.states is None for s in res.history)


def test_run_draws_each_sample_through_the_module_attribute(monkeypatch):
    # perfbench's reinforce-7-9 trace self-check wraps `reinforce.sample`
    # and expects batch_size x iterations calls a run: one call a rollout,
    # looked up on the module when it is made. A batched forward pass has to
    # change this count and that check together.
    calls = []
    real = reinforce.sample

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reinforce, "sample", counted)
    cfg = ReinforceConfig(batch_size=4, iterations=3)
    res = run_reinforce(cfg, SCHEDULE_5_9, 1, PaidQueries(SyntheticOracle()))
    assert len(calls) == cfg.batch_size * cfg.iterations == len(res.history)


def test_run_predictor_mode_never_charges():
    # a predictor-guided run's rewards are the predictor's scores, and an
    # invalid sample's is 0.0; nothing is paid for
    cfg = ReinforceConfig(batch_size=5, iterations=15)
    fitness = PredictorFitness(RnnParams.seeded(0))
    res = run_reinforce(cfg, SCHEDULE_5_9, 2, fitness)
    assert all(
        s.reward == (0.0 if s.invalid else fitness.predictions[s.spec]) for s in res.history
    )
    assert fitness.evaluations == len(res.history) - res.invalid_count


def test_run_is_deterministic():
    cfg = ReinforceConfig(batch_size=4, iterations=25)

    def one():
        paid = PaidQueries(SyntheticOracle())
        res = run_reinforce(cfg, SCHEDULE_5_9, 11, paid)
        return paid.trace.to_csv_lines(), res.controller.flatten()

    lines_a, theta_a = one()
    lines_b, theta_b = one()
    assert lines_a == lines_b
    assert np.array_equal(theta_a, theta_b)


def test_run_bandit_converges_toward_best_action():
    rewards = (1.0, 0.0, 0.0)
    cfg = ReinforceConfig(batch_size=20, iterations=500, learning_rate=0.05)
    res = run_reinforce(
        cfg, BANDIT, 0, None, reward_fn=lambda s: rewards[s.actions[0]],
    )
    assert bandit_probs(res.controller)[0] > 0.9


def test_run_requires_some_reward_source():
    with pytest.raises(ConfigError):
        run_reinforce(ReinforceConfig(iterations=1), BANDIT, 0, None)


def test_config_validation():
    with pytest.raises(ConfigError):
        ReinforceConfig(batch_size=0)
    with pytest.raises(ConfigError):
        ReinforceConfig(iterations=-1)
    with pytest.raises(ConfigError):
        ReinforceConfig(learning_rate=0.0)
    for field, value in (
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("init_scale", math.nan),
        ("init_scale", 1e308),
    ):
        with pytest.raises(ConfigError, match=field):
            ReinforceConfig(**{field: value})
    with pytest.raises(ConfigError):
        ReinforceConfig(beta=1.0)
    for size in ({"hidden_size": 0}, {"hidden_size": -1}, {"emb_dim": 0}):
        with pytest.raises(ConfigError, match=r"must lie in \[1, inf\)"):
            ReinforceConfig(**size)
