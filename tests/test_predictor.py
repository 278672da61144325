"""Token encoding, the recurrent classifier, its gradients, training, and
persistence. Gradient checks use central finite differences; forward passes
are cross-checked against a plain-loop reimplementation."""

import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from cellsearch import cellspace, flatparams, predictor
from cellsearch.cellspace import ModelSpec, OpLabel, SpaceLimits
from cellsearch.errors import (
    ConfigError,
    DegenerateDataError,
    InvalidSpecError,
    ParseError,
    ShapeError,
)
from cellsearch.harness import ExperimentConfig
from cellsearch.predictor import (
    ALPHABET_SIZE,
    EDGE_0,
    EDGE_1,
    OP_CONV1X1,
    OP_CONV3X3,
    OP_MAXPOOL,
    SEP,
    PredictorFitness,
    RnnParams,
    TrainConfig,
    TrainedPredictor,
    Workspace,
    encode,
    forward,
    heldout_accuracy,
    load_predictor,
    loss_and_grad,
    pad_batch,
    predict,
    save_predictor,
    stratified_split,
    train,
)

from conftest import (
    central_differences,
    make_spec,
    max_relative_error,
    reference_bce,
    reference_rnn_prob,
)


def zero_params(hidden_size=predictor.DEFAULT_HIDDEN):
    """Every parameter 0, as views into one vector of the shared layout."""
    size = flatparams.size(predictor._shapes(hidden_size))
    return RnnParams.from_flat(np.zeros(size), hidden_size)


def batch_loss_and_grad(params, batch):
    """loss_and_grad on a list of (token sequence, label), padded into a
    workspace of its own."""
    return loss_and_grad(params, Workspace(*pad_batch(batch), params.hidden_size))


# ---------------------------------------------------------------------------
# encoding


def test_encode_two_vertex(two_vertex):
    assert encode(two_vertex).tolist() == [SEP, EDGE_1]


def test_encode_three_vertex_chain(chain3_conv1x1):
    assert encode(chain3_conv1x1).tolist() == [OP_CONV1X1, SEP, EDGE_1, EDGE_0, EDGE_1]


def test_encode_op_tokens_in_index_order():
    spec = make_spec(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [OpLabel.MAXPOOL3X3, OpLabel.CONV3X3, OpLabel.CONV1X1],
    )
    seq = encode(spec).tolist()
    assert seq[:4] == [OP_MAXPOOL, OP_CONV3X3, OP_CONV1X1, SEP]
    assert len(seq) == (5 - 2) + 1 + 10


def test_encode_length_formula():
    rng = random.Random(0)
    for _ in range(100):
        spec = cellspace.random_spec(rng, SpaceLimits(7, 9))
        v = spec.num_vertices
        assert len(encode(spec)) == (v - 2) + 1 + v * (v - 1) // 2


def test_encode_injective_exhaustive_v_le_4():
    specs = list(cellspace.enumerate_space(SpaceLimits(4, 9)))
    seen = {}
    for spec in specs:
        key = tuple(encode(spec).tolist())
        assert key not in seen, f"collision between {spec} and {seen[key]}"
        seen[key] = spec
    assert len(seen) == len(specs)


def test_encode_rejects_unpruned():
    # vertex 1 unreachable from IN
    spec = ModelSpec.from_edges(
        3, ((0, 2), (1, 2)), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT)
    )
    with pytest.raises(InvalidSpecError):
        encode(spec)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_params_is_half(two_vertex, chain3_conv1x1):
    params = zero_params()
    assert forward(params, encode(two_vertex)) == 0.5
    assert forward(params, encode(chain3_conv1x1)) == 0.5


def test_forward_saturated_bias(two_vertex):
    params = zero_params()
    params.b_o = 20.0
    assert forward(params, encode(two_vertex)) > 0.999


def test_forward_matches_reference_recomputation():
    rng = random.Random(3)
    for seed in range(20):
        params = RnnParams.seeded(seed, hidden_size=16, init_scale=0.5)
        spec = cellspace.random_spec(rng, SpaceLimits(7, 9))
        seq = encode(spec)
        expected = reference_rnn_prob(
            params.W_x, params.W_h, params.b_h, params.w_o, params.b_o, seq.tolist()
        )
        assert abs(forward(params, seq) - expected) < 1e-12


def test_forward_stays_inside_open_interval(two_vertex):
    seq = encode(two_vertex)
    for b_o in (1000.0, -1000.0):
        params = zero_params()
        params.b_o = b_o
        p = forward(params, seq)
        assert 0.0 < p < 1.0
        # and the resulting loss is finite
        loss, _ = batch_loss_and_grad(params, [(seq, 0), (seq, 1)])
        assert math.isfinite(loss)


def test_forward_shape_errors():
    # parameters are checked where they enter: every loaded file goes
    # through from_flat, which refuses a vector of the wrong length
    theta = zero_params(4).flatten()
    for bad in (theta[:-1], np.append(theta, 0.0), theta.reshape(1, -1)):
        with pytest.raises(ShapeError):
            RnnParams.from_flat(bad, 4)
    with pytest.raises(ShapeError):
        forward(zero_params(), np.array([0, 6]))
    with pytest.raises(ShapeError):
        forward(zero_params(), np.array([], dtype=int))
    # a token is an integer id: no float, bool or string is cast to one,
    # inside a list either
    params = zero_params()
    for bad in (
        [5.9, 1.2], np.array([5.0, 1.0]), [True, 1], [1, np.True_], np.array([True, False]),
        ["5", "1"], [5, "1"], np.array(["5", "1"]), [[5, 1]], [5, None], 5,
    ):
        with pytest.raises(ShapeError):
            forward(params, bad)
        with pytest.raises(ShapeError):
            pad_batch([([5, 1], 0), (bad, 1)])
    seq = encode(make_spec(3, [(0, 1), (1, 2)], [OpLabel.MAXPOOL3X3]))
    for good in (seq.tolist(), tuple(seq.tolist()), seq.astype(np.uint8), list(seq)):
        assert forward(params, good) == forward(params, seq)
    # a label is the int 0 or 1, as a labeled file's must be
    for label in (0.7, 2, -1, True, 1.0, "1", np.int64(1), None):
        with pytest.raises(ConfigError, match="label"):
            pad_batch([([5, 1], 0), ([5, 0, 1], label)])


def test_from_flat_rejects_non_finite_parameters():
    # every loaded file and every training step unflattens through
    # from_flat
    theta = RnnParams.seeded(0, 4).flatten()
    assert RnnParams.from_flat(theta, 4).flatten().tolist() == theta.tolist()
    theta[7] = np.nan
    with pytest.raises(ShapeError, match="non-finite"):
        RnnParams.from_flat(theta, 4)
    theta[7] = np.inf
    with pytest.raises(ShapeError, match="non-finite"):
        RnnParams.from_flat(theta, 4)


# ---------------------------------------------------------------------------
# loss and gradients


def test_loss_zero_params_is_ln2(two_vertex, chain3_conv1x1):
    params = zero_params()
    batch = [(encode(two_vertex), 0), (encode(chain3_conv1x1), 1)]
    loss, _ = batch_loss_and_grad(params, batch)
    assert abs(loss - math.log(2)) < 1e-15


def test_loss_matches_reference_bce_mixed_lengths():
    rng = random.Random(7)
    params = RnnParams.seeded(11, hidden_size=16, init_scale=0.4)
    specs = [cellspace.random_spec(rng, SpaceLimits(7, 9)) for _ in range(8)]
    labels = [rng.randrange(2) for _ in specs]
    batch = [(encode(s), y) for s, y in zip(specs, labels)]
    loss, _ = batch_loss_and_grad(params, batch)
    expected = float(
        np.mean(
            [
                reference_bce(
                    reference_rnn_prob(
                        params.W_x,
                        params.W_h,
                        params.b_h,
                        params.w_o,
                        params.b_o,
                        seq.tolist(),
                    ),
                    y,
                )
                for seq, y in batch
            ]
        )
    )
    assert abs(loss - expected) < 1e-12


def test_gradients_match_finite_differences():
    # Small hidden sizes keep the FD sweep cheap; batches mix lengths so the
    # masking path is exercised. The larger-scale sweep lives in the
    # acceptance suite.
    rng = random.Random(12)
    worst = 0.0
    for draw in range(25):
        hidden = rng.choice([3, 4, 5])
        gen = np.random.default_rng(100 + draw)
        theta0 = gen.uniform(-0.7, 0.7, hidden * ALPHABET_SIZE + hidden * hidden + 2 * hidden + 1)
        specs = [
            cellspace.random_spec(rng, SpaceLimits(7, 9))
            for _ in range(rng.randint(1, 5))
        ]
        # one workspace serves every parameter vector of the sweep
        work = Workspace(*pad_batch([(encode(s), rng.randrange(2)) for s in specs]), hidden)

        def f(theta):
            loss, _ = loss_and_grad(RnnParams.from_flat(theta, hidden), work)
            return loss

        _, grad = loss_and_grad(RnnParams.from_flat(theta0, hidden), work)
        numeric = central_differences(f, theta0)
        err = max_relative_error(grad.flatten(), numeric)
        worst = max(worst, err)
    assert worst <= 1e-4, f"worst relative error {worst}"


def test_loss_rejects_empty_batch():
    with pytest.raises(ValueError):
        batch_loss_and_grad(zero_params(), [])


# ---------------------------------------------------------------------------
# training


def _toy_dataset():
    """Labels follow a clean rule: any 3x3 convolution present."""
    specs = cellspace.enumerate_space(SpaceLimits(4, 9))
    items = [
        (s, int(any(op is OpLabel.CONV3X3 for op in s.ops))) for s in specs
    ]
    return items


def _split(items, seed):
    """stratified_split at TrainConfig's default shares."""
    cfg = TrainConfig()
    return stratified_split(
        items, np.random.default_rng(seed), cfg.heldout_fraction, cfg.target_positive_share
    )


def _positives(items):
    return sum(label for _, label in items)


def test_train_learns_separable_rule():
    items = _toy_dataset()
    train_set, held, meta = _split(items, 5)
    params, losses = train(train_set, TrainConfig(), 3)
    assert heldout_accuracy(params, held) == 1.0
    # training made progress and is stable late
    assert losses[-1] < losses[0]
    for a, b in zip(losses[10:], losses[11:]):
        assert b <= a + 1e-3


def test_train_is_deterministic():
    items = _toy_dataset()
    train_set, _, _ = _split(items, 5)
    cfg = TrainConfig(epochs=12)
    p1, l1 = train(train_set, cfg, 9)
    p2, l2 = train(train_set, cfg, 9)
    assert l1 == l2
    assert np.array_equal(p1.W_x, p2.W_x)
    assert np.array_equal(p1.W_h, p2.W_h)
    assert np.array_equal(p1.b_h, p2.b_h)
    assert np.array_equal(p1.w_o, p2.w_o)
    assert p1.b_o == p2.b_o


def _reference_sigmoid(z):
    """The logistic sigmoid, from exp(-z) at z >= 0 and exp(z) below."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, predictor._P_LO, predictor._P_HI)


def _reference_loss_and_grad(params, batch):
    """loss_and_grad as first written: it pads each list batch itself and
    accumulates every gradient inside the backward loop, one step at a
    time."""
    seqs = [np.asarray(seq, dtype=np.int64) for seq, _ in batch]
    y = np.array([float(label) for _, label in batch])
    B = len(seqs)
    T = max(len(s) for s in seqs)
    H = params.hidden_size
    X = np.zeros((B, T), dtype=np.int64)
    M = np.zeros((B, T), dtype=bool)
    for b, s in enumerate(seqs):
        X[b, T - len(s) :] = s
        M[b, T - len(s) :] = True

    hs = np.zeros((B, T + 1, H))
    for t in range(T):
        a = params.W_x[:, X[:, t]].T + hs[:, t] @ params.W_h.T + params.b_h
        hs[:, t + 1] = np.where(M[:, t : t + 1], np.tanh(a), hs[:, t])

    z = hs[:, T] @ params.w_o + params.b_o
    p = _reference_sigmoid(z)
    loss = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))

    dz = (p - y) / B
    g = zero_params(H)
    g.w_o[...] = hs[:, T].T @ dz
    g.b_o[...] = dz.sum()
    dh = np.outer(dz, params.w_o)
    for t in reversed(range(T)):
        m = M[:, t : t + 1]
        da = np.where(m, dh * (1.0 - hs[:, t + 1] ** 2), 0.0)
        g.b_h += da.sum(axis=0)
        g.W_h += da.T @ hs[:, t]
        np.add.at(g.W_x, (slice(None), X[:, t]), da.T)
        dh = np.where(m, da @ params.W_h, dh)
    return loss, g


def _reference_train(data, cfg, seed):
    """train as first written, at one batch per epoch: encode per item, the
    whole list as the batch in data order, padded per call, and the update
    through flatten() and from_flat."""
    encoded = [(encode(spec), label) for spec, label in data]
    params = RnnParams.seeded(seed, cfg.hidden_size, cfg.init_scale)
    losses = []
    for _ in range(cfg.epochs):
        loss, g = _reference_loss_and_grad(params, encoded)
        losses.append(loss)
        params = RnnParams.from_flat(
            params.flatten() - cfg.learning_rate * g.flatten(), cfg.hidden_size
        )
    return params, losses


def _mixed_length_pool():
    """Every 30th (5,9) class, labeled by a rule that needs the edges:
    sequences of 2 to 14 tokens, both classes."""
    specs = list(cellspace.enumerate_space(SpaceLimits(5, 9)))[::30]
    items = [(s, int(s.num_edges % 3 == 0 or OpLabel.MAXPOOL3X3 in s.ops)) for s in specs]
    lengths = {len(encode(s)) for s, _ in items}
    assert min(lengths) == 2 and max(lengths) == 14
    return items


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_params_equal(a, b):
    # bit for bit: the sign of a zero counts too
    for name in RnnParams._FIELDS:
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


# The kernel's products and sums go through BLAS and numpy reductions,
# which pick their summation order by shape and stride; tiny hidden sizes
# take paths of their own, so identity is checked at each of these.
HIDDEN_SIZES = (1, 2, 3, 4, 8, 16)
BATCH_SIZES = (1, 2, 5, 16)
EPOCH_COUNTS = (1, 2, 5, 16)


_SEEDED = RnnParams.seeded


def _signed_zero_b_h(seed, hidden_size, init_scale=predictor.DEFAULT_INIT_SCALE):
    """Seeded parameters whose b_h alternates +0.0 and -0.0, the edge case
    of the padded steps' -b_h input."""
    params = _SEEDED(seed, hidden_size, init_scale)
    params.b_h[0::2] = 0.0
    params.b_h[1::2] = -0.0
    return params


@pytest.mark.parametrize("signed_zero_b_h", [False, True])
@pytest.mark.parametrize("epochs", EPOCH_COUNTS)
@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_train_is_bit_identical_to_the_per_batch_reference(
    monkeypatch, hidden, epochs, signed_zero_b_h
):
    # padding once, one full-batch step per epoch and summing the gradients
    # out of the recurrence must not move a single bit of the trained
    # parameters or of any epoch's loss
    if signed_zero_b_h:
        monkeypatch.setattr(RnnParams, "seeded", _signed_zero_b_h)
    data = _mixed_length_pool()
    cfg = TrainConfig(epochs=epochs, hidden_size=hidden)
    params, losses = train(data, cfg, 4)
    ref_params, ref_losses = _reference_train(data, cfg, 4)
    _assert_params_equal(params, ref_params)
    assert losses == ref_losses


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_loss_and_grad_equals_the_reference_exactly(hidden):
    rng = random.Random(21)
    encoded = [(encode(s), y) for s, y in _mixed_length_pool()]
    (shortest,) = [item for item in encoded if len(item[0]) == 2]
    longest = [item for item in encoded if len(item[0]) == 14]
    batches = [rng.sample(encoded, size) for size in BATCH_SIZES for _ in range(6)]
    # a 2-token row padded at 12 of 14 steps, and a batch with no padding
    batches += [[shortest] + longest[:size - 1] for size in BATCH_SIZES[1:]] + [longest[:5]]
    # the shapes training runs: the whole pool (85 rows), and 145 rows, the
    # largest C1 training set
    assert len(encoded) == 85
    batches += [encoded, rng.choices(encoded, k=145)]
    live_and_masked = set()
    for params in (RnnParams.seeded(13, hidden), _signed_zero_b_h(13, hidden)):
        for batch in batches:
            X, M, y = pad_batch(batch)
            live_and_masked.update(M.all(axis=0).tolist())
            loss, g = loss_and_grad(params, Workspace(X, M, y, hidden))
            ref_loss, ref_g = _reference_loss_and_grad(params, batch)
            assert loss == ref_loss
            _assert_params_equal(g, ref_g)
    assert live_and_masked == {True, False}


def _reference_forward(params, seq):
    """forward as first written: a column of W_x per token and `@` for the
    recurrence."""
    h = np.zeros(params.hidden_size)
    for t in np.asarray(seq, dtype=np.int64):
        h = np.tanh(params.W_x[:, t] + params.W_h @ h + params.b_h)
    return float(_reference_sigmoid(params.w_o @ h + params.b_o))


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_forward_equals_the_reference_exactly(hidden):
    cells = list(cellspace.enumerate_space(SpaceLimits(5, 9)))[::20]
    for params in (RnnParams.seeded(17, hidden, 0.8), _signed_zero_b_h(17, hidden, 0.8)):
        for cell in cells:
            seq = encode(cell)
            assert _bits(forward(params, seq)) == _bits(_reference_forward(params, seq))


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_scoring_and_training_agree_bit_for_bit(hidden):
    # scoring and training run one kernel: a one-row batch labeled 0 has
    # the b_o gradient (p - 0.0) / 1, exactly the probability forward gives
    for params in (RnnParams.seeded(13, hidden), _signed_zero_b_h(13, hidden)):
        for spec, _ in _mixed_length_pool():
            seq = encode(spec)
            _, g = batch_loss_and_grad(params, [(seq, 0)])
            assert _bits(g.b_o) == _bits(forward(params, seq))


def test_a_batch_row_scores_within_ulps_of_its_one_row_forward():
    # in a larger batch BLAS may sum the products in another order, so a
    # row's probability need not be its one-row score's bits; it stays
    # within a few ulps and on the same side of 0.5
    specs = list(cellspace.enumerate_space(SpaceLimits(5, 9)))[::15]
    seqs = [encode(s) for s in specs]
    assert {len(s) for s in seqs} >= {2, 14}
    pool = [(s, int(s.num_edges % 3 == 0 or OpLabel.MAXPOOL3X3 in s.ops)) for s in specs]
    trained, _ = train(pool, TrainConfig(epochs=200, hidden_size=16), 4)
    assert 0 < sum(forward(trained, seq) > 0.5 for seq in seqs) < len(seqs)
    for params in (RnnParams.seeded(13, 16), trained):
        scores = np.array([forward(params, seq) for seq in seqs])
        for size in (2, 32, 160, len(seqs)):
            X, M, y = pad_batch([(seq, 0) for seq in seqs[:size]])
            _, p = predictor._run(params, Workspace(X, M, y, params.hidden_size))
            assert np.abs(p - scores[:size]).max() <= 1e-12, size
            assert np.array_equal(p > 0.5, scores[:size] > 0.5), size


def test_train_calls_loss_and_grad_once_per_epoch_on_all_rows(monkeypatch):
    # perfbench's tracer counts calls to the module attribute, so train must
    # look it up there, once per epoch, each time on every training row and
    # in the one workspace train built
    calls, works = [], []
    real = predictor.loss_and_grad

    def counting(params, work):
        calls.append(len(work.y))
        works.append(work)
        return real(params, work)

    monkeypatch.setattr(predictor, "loss_and_grad", counting)
    train_set, _, _ = _split(_toy_dataset(), 5)
    cfg = TrainConfig(epochs=3)
    train(train_set, cfg, 9)
    assert calls == [len(train_set)] * cfg.epochs
    assert all(work is works[0] for work in works)


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_a_reused_workspace_gives_each_call_the_reference_bits(hidden):
    # train writes every epoch into one workspace: nothing a call leaves in
    # it (the zero state row, the padded slots' inputs, the b_h block) may
    # reach a later call, and no gradient may share its memory
    batch = [(encode(s), y) for s, y in _mixed_length_pool()]
    work = Workspace(*pad_batch(batch), hidden)
    results = []
    for seed, make in enumerate((_SEEDED, _signed_zero_b_h, _SEEDED)):
        params = make(13 + seed, hidden)
        for _ in range(3):
            loss, g = loss_and_grad(params, work)
            ref_loss, ref_g = _reference_loss_and_grad(params, batch)
            assert loss == ref_loss
            _assert_params_equal(g, ref_g)
            results.append((g, ref_g))
            params = RnnParams.from_flat(params.flatten() - 0.5 * g.flatten(), hidden)
    for g, ref_g in results:
        _assert_params_equal(g, ref_g)


def test_consecutive_trainings_each_equal_a_fresh_run():
    # a workspace lives and dies with its train call: runs at other hidden
    # sizes and batch shapes in between change no bit of a run
    pool = _mixed_length_pool()
    short = [(s, y) for s, y in pool if len(encode(s)) <= 9]
    assert len(short) < len(pool) and {y for _, y in short} == {0, 1}
    runs = [(pool, 16), (short, 3), (pool[::2], 8), (pool, 1), (pool, 16)]
    for data, hidden in runs:
        cfg = TrainConfig(epochs=3, hidden_size=hidden)
        params, losses = train(data, cfg, 6)
        ref_params, ref_losses = _reference_train(data, cfg, 6)
        _assert_params_equal(params, ref_params)
        assert losses == ref_losses


def test_a_training_epoch_allocates_no_kernel_sized_block(monkeypatch):
    # every (T+1, B, H) buffer lives in the workspace train builds once, so
    # an epoch's call grows the heap by well under two (T, B, H) float
    # blocks (about 0.45: np.square buffers its reversed operand); a kernel
    # that allocates its buffers per call grows it by over four
    growth = []
    real = predictor.loss_and_grad

    def measured(params, work):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = real(params, work)
        growth.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(predictor, "loss_and_grad", measured)
    data = _mixed_length_pool()
    (B, T), H = pad_batch([(encode(s), y) for s, y in data])[0].shape, 16
    assert (B, T) == (85, 14)
    tracemalloc.start()
    try:
        train(data, TrainConfig(epochs=6, hidden_size=H), 0)
    finally:
        tracemalloc.stop()
    assert len(growth) == 6
    assert max(growth) <= 2 * T * B * H * 8, growth


def test_train_refuses_a_label_that_is_not_0_or_1(two_vertex, chain3_conv1x1):
    for bad in (0.7, 2, True):
        data = [(two_vertex, 0), (two_vertex, 0), (chain3_conv1x1, bad)]
        with pytest.raises(ConfigError, match="label"):
            train(data, TrainConfig(epochs=1), 0)


def test_train_rejects_single_class(two_vertex, chain3_conv1x1):
    data = [(two_vertex, 1), (chain3_conv1x1, 1)]
    with pytest.raises(DegenerateDataError):
        train(data, TrainConfig(), 0)
    with pytest.raises(DegenerateDataError):
        train([], TrainConfig(), 0)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    # training takes one full-batch step per epoch: a config that still
    # sets a minibatch size is refused, naming the key
    with pytest.raises(ConfigError, match=r"config key 'predictor'.*batch"):
        ExperimentConfig.from_json_obj({"predictor": {"batch": 16}})
    # nan <= 0 is False, so these once passed: a NaN or infinite rate
    # trained until the parameters went non-finite, and 1e308 overflowed
    # the width of the uniform init draw
    for field, value in (
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("learning_rate", -math.inf),
        ("init_scale", math.nan),
        ("init_scale", math.inf),
        ("init_scale", 1e308),
    ):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})
    # huge but finite values are still accepted
    TrainConfig(learning_rate=1e308, init_scale=8e307)


def test_train_raises_on_the_step_that_leaves_a_non_finite_parameter(monkeypatch):
    # no finite config reaches the per-step check, so a NaN gradient is
    # planted on the third epoch's step
    calls = []
    real = predictor.loss_and_grad

    def poisoned(params, work):
        calls.append(len(work.y))
        loss, g = real(params, work)
        if len(calls) == 3:
            g.W_h[1, 2] = np.nan
        return loss, g

    monkeypatch.setattr(predictor, "loss_and_grad", poisoned)
    train_set, _, _ = _split(_toy_dataset(), 5)
    with pytest.raises(ShapeError, match="non-finite"):
        train(train_set, TrainConfig(epochs=5), 9)
    assert calls == [len(train_set)] * 3


# ---------------------------------------------------------------------------
# stratified split


def test_split_disjoint_and_proportional():
    items = _toy_dataset()
    n_pos = sum(y for _, y in items)
    train_set, held, meta = _split(items, 0)
    train_hashes = {cellspace.canonical_hash(s) for s, _ in train_set}
    held_hashes = {cellspace.canonical_hash(s) for s, _ in held}
    assert not (train_hashes & held_hashes)
    assert _positives(held) == round(0.2 * n_pos)
    assert len(held) == round(0.2 * n_pos) + round(0.2 * (len(items) - n_pos))


def test_split_rebalances_scarce_positives():
    # 6 positives in a pool of 106: raw share ~5.7%, the training set must
    # be rebalanced to at least 20% positive.
    rng = random.Random(21)
    specs = []
    seen = set()
    while len(specs) < 106:
        s = cellspace.random_spec(rng, SpaceLimits(5, 9))
        h = cellspace.canonical_hash(s)
        if h not in seen:
            seen.add(h)
            specs.append(s)
    items = [(s, 1 if i < 6 else 0) for i, s in enumerate(specs)]
    train_set, held, meta = _split(items, 1)
    share = _positives(train_set) / len(train_set)
    assert share >= 0.2
    assert meta["train_positive_share"] == share
    assert (meta["train_size"], meta["heldout_size"]) == (len(train_set), len(held))
    # negatives were dropped to reach the share
    assert len(train_set) + len(held) < len(items)
    # every positive that wasn't held out is in the training set
    assert _positives(train_set) == 6 - _positives(held)


def test_split_reports_shortfall_when_no_positives():
    rng = random.Random(2)
    items = [(cellspace.random_spec(rng, SpaceLimits(5, 9)), 0) for _ in range(20)]
    train_set, held, meta = _split(items, 3)
    # the share reached is reported below the target, and no negative is
    # dropped chasing it
    assert meta["train_positive_share"] == 0.0 < TrainConfig().target_positive_share
    assert (meta["train_size"], meta["heldout_size"]) == (16, 4)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    params = RnnParams.seeded(42, hidden_size=16, init_scale=0.3)
    trained = TrainedPredictor(params, threshold_used=0.767, train_seed=42)
    path = tmp_path / "predictor.json"
    save_predictor(trained, path)
    loaded = load_predictor(path)
    assert loaded.threshold_used == 0.767
    assert loaded.train_seed == 42
    rng = random.Random(0)
    for _ in range(20):
        spec = cellspace.random_spec(rng, SpaceLimits(7, 9))
        assert abs(predict(loaded.params, spec) - predict(params, spec)) < 1e-12


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all\n")
    with pytest.raises(ParseError):
        load_predictor(path)


def test_load_rejects_wrong_alphabet(tmp_path):
    params = RnnParams.seeded(1)
    obj = params.to_json_obj()
    obj["alphabet"] = 7
    obj["threshold_used"] = 0.9
    obj["train_seed"] = 0
    import json

    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load_predictor(path)


def test_load_rejects_inconsistent_shapes(tmp_path):
    import json

    for name, value in (
        ("W_h", [row[:-1] for row in RnnParams.seeded(1).to_json_obj()["W_h"]]),
        ("b_o", [0.5]),
    ):
        obj = RnnParams.seeded(1).to_json_obj()
        obj[name] = value
        obj["threshold_used"] = 0.9
        obj["train_seed"] = 0
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ShapeError):
            load_predictor(path)


def test_load_refuses_a_non_finite_weight_by_its_type(tmp_path):
    # a weight is a finite real, as every real read from a file is; a
    # non-finite vector built in memory is refused by from_flat instead
    obj = RnnParams.seeded(1).to_json_obj()
    obj.update(b_o=float("nan"), threshold_used=0.9, train_seed=0)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=re.escape(
        f"{path}: b_o must be a finite real number, got nan"
    )):
        load_predictor(path)


def test_load_requires_metadata(tmp_path):
    params = RnnParams.seeded(1)
    import json

    path = tmp_path / "meta.json"
    path.write_text(json.dumps(params.to_json_obj()))
    with pytest.raises(ParseError):
        load_predictor(path)


# ---------------------------------------------------------------------------
# predict / fitness adapter


def test_predict_is_encode_then_forward(chain3_conv1x1):
    params = RnnParams.seeded(5)
    assert predict(params, chain3_conv1x1) == forward(params, encode(chain3_conv1x1))
    assert predict(params, chain3_conv1x1) == predict(params, chain3_conv1x1)


def test_predictor_fitness_never_charges(chain3_conv1x1):
    params = RnnParams.seeded(8)
    fitness = PredictorFitness(params)
    value = fitness.evaluate(chain3_conv1x1)
    assert value == predict(params, chain3_conv1x1)
    assert fitness.evaluations == 1


def test_predictor_fitness_predicts_each_cell_once(monkeypatch):
    calls = []
    real = predictor.predict

    def counting(params, spec):
        calls.append(spec)
        return real(params, spec)

    monkeypatch.setattr(predictor, "predict", counting)

    def chain():
        return make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])

    # a cell equal to chain(), built as a separate object
    equal = make_spec(3, [(1, 2), (0, 1)], [OpLabel.CONV3X3])
    assert equal == chain()
    other = make_spec(3, [(0, 1), (1, 2), (0, 2)], [OpLabel.MAXPOOL3X3])
    params = RnnParams.seeded(8)
    fitness = PredictorFitness(params)
    values = [fitness.evaluate(g) for g in (chain(), chain(), equal, other, equal)]
    assert calls == [chain(), other]
    assert values == [real(params, chain())] * 3 + [real(params, other), real(params, chain())]
    assert fitness.evaluations == 5

    # a second instance keeps its own memo
    params2 = RnnParams.seeded(9)
    second = PredictorFitness(params2)
    assert second.evaluate(chain()) == real(params2, chain()) != values[0]
    assert calls == [chain(), other, chain()]
    assert (fitness.evaluations, second.evaluations) == (5, 1)
    assert fitness.evaluate(chain()) == values[0]
    assert len(calls) == 3
