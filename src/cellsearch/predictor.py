"""Architecture encoding and a small recurrent go/no-go classifier.

A cell is flattened to a token sequence (interior ops, a separator, then
the upper-triangular adjacency bits) and fed through a single-layer tanh
recurrence; the final hidden state is squashed to the probability that
the architecture clears the accuracy threshold. Everything — forward,
backprop-through-time, one full-batch gradient step per epoch — is written
against numpy directly so the arithmetic is fully inspectable.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from . import cellspace, flatparams
from .cellspace import ModelSpec, OpLabel
from .errors import (
    DegenerateDataError, In, ShapeError, check_fields, check_value, json_tuples, parsing,
)

# Token alphabet. Layout of a sequence: (v-2) interior op tokens in index
# order, one SEP, then v(v-1)/2 adjacency bits in row-major order.
OP_CONV3X3, OP_CONV1X1, OP_MAXPOOL, EDGE_0, EDGE_1, SEP = range(6)
ALPHABET_SIZE = 6

DEFAULT_HIDDEN = 16

# Weight-init half-width. Small Elman nets are memory-limited by the spectral
# radius of W_h: at +/-0.1 the hidden state forgets a token within ~2 steps
# and nothing past the separator ever reaches the readout, so training flat-
# lines at the base rate. 0.4 puts the recurrence near unit gain for
# hidden size 16 and trains reliably at the default learning rate.
DEFAULT_INIT_SCALE = 0.4

_OP_TOKENS = {
    OpLabel.CONV3X3: OP_CONV3X3,
    OpLabel.CONV1X1: OP_CONV1X1,
    OpLabel.MAXPOOL3X3: OP_MAXPOOL,
}

# Probabilities are kept strictly inside (0,1) so the log-loss stays finite
# even when the output unit saturates in float64.
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


def encode(spec: ModelSpec) -> np.ndarray:
    """Flatten a pruned cell to its token sequence (int64 array)."""
    cellspace.require_canonical(spec)
    tokens = [_OP_TOKENS[op] for op in spec.ops[1:-1]]
    tokens.append(SEP)
    bits = range(len(cellspace.upper_triangle_pairs(spec.num_vertices)))
    tokens += [EDGE_1 if spec.mask >> k & 1 else EDGE_0 for k in bits]
    return np.asarray(tokens, dtype=np.int64)


def _shapes(hidden_size: int) -> dict:
    """Parameter name -> shape, in flatten() order."""
    return {
        "W_x": (hidden_size, ALPHABET_SIZE),
        "W_h": (hidden_size, hidden_size),
        "b_h": (hidden_size,),
        "w_o": (hidden_size,),
        "b_o": (),
    }


@dataclass
class RnnParams:
    """Weights of the Elman cell plus the scalar output head."""

    W_x: np.ndarray  # hidden x alphabet
    W_h: np.ndarray  # hidden x hidden
    b_h: np.ndarray  # hidden
    w_o: np.ndarray  # hidden
    b_o: np.ndarray  # 0-d

    _FIELDS = tuple(_shapes(1))

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[0]

    @classmethod
    def seeded(
        cls, seed: int, hidden_size: int = DEFAULT_HIDDEN, init_scale: float = DEFAULT_INIT_SCALE
    ) -> "RnnParams":
        return cls(**flatparams.seeded(_shapes(hidden_size), seed, init_scale))

    def flatten(self) -> np.ndarray:
        return np.concatenate([getattr(self, name) for name in self._FIELDS], axis=None)

    @classmethod
    def from_flat(cls, theta, hidden_size: int) -> "RnnParams":
        """Unflatten a parameter vector; the parameters are views into it
        when it is a float vector already. Every loaded file lands here, so
        this is where bad parameters are caught: a wrong length or
        non-finite entries raise."""
        theta = np.asarray(theta, dtype=float)
        return cls(**flatparams.unflatten(theta, _shapes(hidden_size), "predictor"))

    def to_json_obj(self) -> dict:
        obj = {name: getattr(self, name).tolist() for name in self._FIELDS}
        obj.update(hidden=self.hidden_size, alphabet=ALPHABET_SIZE)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RnnParams":
        """Inverse of to_json_obj; a wrong shape raises ShapeError, and a
        weight that is no finite real number ConfigError naming it."""
        check_value("alphabet", obj["alphabet"], Literal[ALPHABET_SIZE])
        hidden = obj["hidden"]
        check_value("hidden", hidden, int)
        parts = {name: json_tuples(obj[name]) for name in cls._FIELDS}
        for name, shape in _shapes(hidden).items():
            # the shape without converting: check_value names a bad entry
            got = np.array(parts[name], dtype=object).shape
            if got != shape:
                raise ShapeError(f"{name}: expected shape {shape}, got {got}")
            hint = functools.reduce(lambda inner, _: tuple[inner, ...], shape, float)
            check_value(name, parts[name], hint)
        return cls.from_flat(np.concatenate(list(parts.values()), axis=None), hidden)


def _prob(z):
    """The logistic sigmoid of z, kept inside [_P_LO, _P_HI]."""
    e = np.exp(-np.abs(z))  # exp(-z) for z >= 0, exp(z) below
    return np.minimum(np.maximum(np.where(z >= 0, 1.0, e) / (1.0 + e), _P_LO), _P_HI)


def _check_tokens(seq) -> np.ndarray:
    """The one input check in front of the kernel: `seq` as an int64 array,
    or ShapeError unless it is a nonempty 1-d sequence of integer token ids
    in the alphabet. A float, a bool or a string is refused, inside a list
    too; an integer array passes without a per-token loop."""
    tokens = np.asarray(seq)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ShapeError("token sequence must be a nonempty 1-d array")
    if tokens.dtype.kind not in "iu" or not isinstance(seq, np.ndarray) and any(
        isinstance(t, (bool, np.bool_)) for t in seq
    ):
        raise ShapeError(f"token ids must be integers, got {seq!r}")
    tokens = tokens.astype(np.int64, copy=False)
    if tokens.min() < 0 or tokens.max() >= ALPHABET_SIZE:
        raise ShapeError("token id outside alphabet")
    return tokens


class _Steps:
    """The time-major form of a left-padded (B, T) batch and the buffers the
    recurrence `_run` writes for it at hidden size H, in place on every
    run. `forward` builds one per call; a `Workspace` adds what the
    backward pass needs."""

    def __init__(self, X: np.ndarray, M: np.ndarray, hidden_size: int):
        (B, T), H = X.shape, hidden_size
        self.tokens = np.ascontiguousarray(X.T)  # (T, B): the W_x gather reads these
        self.padded = ~M.T  # padded[t]: rows still padding at step t
        self.x_in = np.empty((T, B, H))
        self.bias = np.empty((B, H))
        self.a = np.empty((B, H))
        self.hs = np.zeros((T + 1, B, H))  # hs[0], the zero state, is never written
        # The gradients read a copy whose rows lie H+1 apart: BLAS sums a
        # dense matrix of at most 3 columns, and a unit-stride dot, in an
        # order of its own, which would round w_o's gradient (at hidden 1
        # W_h's) differently.
        self.states = np.empty((T + 1, B, H + 1))[:, :, :H]


class Workspace(_Steps):
    """A padded batch (X, M, y) as `pad_batch` builds it, with everything
    `loss_and_grad` computes from it alone and every buffer the kernel
    writes at hidden size H. `train` builds one and each epoch's call
    writes into it; a workspace serves parameters of its hidden size
    only."""

    def __init__(self, X: np.ndarray, M: np.ndarray, y: np.ndarray, hidden_size: int):
        super().__init__(X, M, hidden_size)
        (B, T), H = X.shape, hidden_size
        self.y = y
        self.padded_backward = self.padded[::-1].copy()  # step T-1 first
        self.das = np.empty((T, B, H))
        self.terms = np.empty((T, H + 1, H))
        # das[k, b, j] adds into the W_x gradient at (token of row b at step T-1-k, j)
        self.bins = (self.tokens[::-1, :, None] * H + np.arange(H)).ravel()


def _run(params: RnnParams, steps: _Steps):
    """The recurrence over a left-padded batch, which scoring and training
    both run, written into `steps`' buffers. Returns (states, p): states[t],
    every row's state before step t, in a (T+1, B, H) buffer whose rows lie
    H+1 apart, and each row's P(label = 1).

    States are time-major, so a step reads and writes contiguous (B, H)
    blocks, and no step masks the padding: a padded slot's input is -b_h.
    A zero state times W_h is ±0, (-b + ±0) + b is exactly +0.0 for every
    finite b (±0 too) and tanh(+0.0) is +0.0, so a row stays at the zero
    state until its first token. b_h is added from a (B, H) block: a
    same-shape add has the bits of the broadcast add at under half its
    cost."""
    T = steps.tokens.shape[0]
    x_in, hs, a = steps.x_in, steps.hs, steps.a
    # tokens are checked in the alphabet already; clip keeps `take` from
    # buffering its output
    np.take(params.W_x.T, steps.tokens, axis=0, out=x_in, mode="clip")
    x_in[steps.padded] = -params.b_h
    steps.bias[...] = params.b_h

    W_hT = params.W_h.T
    for t in range(T):
        hs[t].dot(W_hT, out=a)
        a += x_in[t]
        a += steps.bias
        np.tanh(a, out=hs[t + 1])

    states = steps.states
    states[...] = hs
    return states, _prob(states[T] @ params.w_o + params.b_o)


def forward(params: RnnParams, seq) -> float:
    """P(label = 1) in (0,1) for one token sequence: `loss_and_grad`'s
    kernel run on it as a one-row batch, so a one-row training batch
    computes exactly this probability. A row of a larger batch may differ
    from it by a few ulps: BLAS picks the products' summation order by
    shape. ShapeError unless `seq` is a nonempty 1-d sequence of integer
    token ids in the alphabet."""
    X = _check_tokens(seq)[None]
    _, p = _run(params, _Steps(X, np.ones(X.shape, dtype=bool), params.hidden_size))
    return float(p[0])


def pad_batch(batch):
    """Check a list of (token sequence, 0/1 label) and left-pad it into the
    form a `Workspace` is built from: (X, M, y), an (n, T) int64 token
    array with T the longest sequence and token 0 in padded slots, its
    (n, T) bool mask of real tokens, and the (n,) float labels. A sequence
    that `forward` would refuse raises ShapeError, and a label that is not
    the int 0 or 1 ConfigError."""
    if not batch:
        raise ValueError("empty batch")
    seqs = [_check_tokens(seq) for seq, _ in batch]
    for _, label in batch:
        check_value("label", label, Literal[0, 1])
    y = np.array([float(label) for _, label in batch])
    T = max(len(s) for s in seqs)
    X = np.zeros((len(seqs), T), dtype=np.int64)
    M = np.zeros((len(seqs), T), dtype=bool)
    for b, s in enumerate(seqs):
        X[b, T - len(s) :] = s
        M[b, T - len(s) :] = True
    return X, M, y


def loss_and_grad(params: RnnParams, work: Workspace):
    """Mean binary cross-entropy over a padded batch plus exact gradients.

    `work` holds the batch and the buffers this call writes. The forward
    pass is the kernel `forward` scores with: a one-row batch's probability
    is bit for bit its score, and a row of a larger batch may differ from
    it by a few ulps. Returns (loss, RnnParams-shaped gradient), bit for
    bit what running the whole padded batch from the zero state, padding
    masked, and adding each step's gradients one at a time gives; the
    gradient shares no memory with `work`. Padded rows run the backward
    pass unmasked, since their gradients only reach their own earlier, also
    padded, steps; their slots are zeroed once.
    """
    (T, B), H = work.tokens.shape, params.hidden_size
    states, p = _run(params, work)
    hT, y = states[T], work.y
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum() / B)
    dz = (p - y) / B

    # Backprop through time: das[k], at first the tanh' of step T-1-k,
    # becomes its pre-activation gradient.
    das = work.das
    np.square(states[T:0:-1], out=das)
    np.subtract(1.0, das, out=das)
    dh, W_h = dz[:, None] * params.w_o, params.W_h
    for da in das:
        da *= dh
        da.dot(W_h, out=dh)
    das[work.padded_backward] = 0.0

    # Each parameter sum runs over t descending, b ascending, from +0.0.
    # W_h's and b_h's step terms share one array, so that at hidden 1 too
    # the sum over t adds rows elementwise; numpy sums a lone row pairwise.
    terms = work.terms
    np.matmul(das.transpose(0, 2, 1), states[T - 1 :: -1], out=terms[:, :H])
    np.add.reduce(das, 1, out=terms[:, H])
    sums = np.add.reduce(terms, 0, initial=0.0)
    g = RnnParams(
        W_x=np.bincount(work.bins, das.ravel(), ALPHABET_SIZE * H).reshape(ALPHABET_SIZE, H).T,
        W_h=sums[:H],
        b_h=sums[H],
        w_o=hT.T @ dz,
        b_o=np.array(dz.sum()),
    )
    return loss, g


def predict(params: RnnParams, spec: ModelSpec) -> float:
    """encode + forward. Pure; pays no simulated seconds."""
    return forward(params, encode(spec))


# ---------------------------------------------------------------------------
# datasets and training


@dataclass(frozen=True)
class TrainConfig:
    """The predictor's split and training hyperparameters."""

    learning_rate: Annotated[float, In("(0, inf)")] = 0.2
    epochs: Annotated[int, In("[1, inf)")] = 200
    hidden_size: Annotated[int, In("[1, inf)")] = DEFAULT_HIDDEN
    init_scale: Annotated[float, flatparams.INIT_SCALE] = DEFAULT_INIT_SCALE
    heldout_fraction: Annotated[float, In("(0, 1)")] = 0.2
    target_positive_share: Annotated[float, In("[0, 1)")] = 0.2

    def __post_init__(self):
        check_fields(self)


def heldout_count(heldout_fraction: float, class_size: int) -> int:
    """How many of a class of `class_size` labels the held-out set takes."""
    return int(round(heldout_fraction * class_size))


def stratified_split(
    labeled, rng: np.random.Generator, heldout_fraction: float, target_positive_share: float
):
    """Split labeled (spec, y) pairs into training and held-out lists of
    (spec, y) pairs.

    The held-out set takes `heldout_count` of each class (so its base rate
    matches the pool). The training set keeps every remaining positive and
    subsamples negatives until positives make up at least
    `target_positive_share` of it — well-performing cells are rare, and a
    classifier fed the raw ratio just learns to say "no". A training set
    left with no positive keeps every negative, and its
    `train_positive_share` of 0.0 reports the shortfall.

    Returns (train, heldout, meta), meta holding the keys `train-predictor`
    prints: `train_size`, `heldout_size` and `train_positive_share`.
    """
    pos = [(s, y) for s, y in labeled if y == 1]
    neg = [(s, y) for s, y in labeled if y == 0]
    pos_order = rng.permutation(len(pos))
    neg_order = rng.permutation(len(neg))
    n_held_pos = heldout_count(heldout_fraction, len(pos))
    n_held_neg = heldout_count(heldout_fraction, len(neg))
    held = [pos[i] for i in pos_order[:n_held_pos]]
    held += [neg[i] for i in neg_order[:n_held_neg]]
    train_pos = [pos[i] for i in pos_order[n_held_pos:]]
    train_neg = [neg[i] for i in neg_order[n_held_neg:]]

    kept_neg = len(train_neg)
    if train_pos and target_positive_share > 0:
        cap = int(len(train_pos) * (1.0 - target_positive_share) / target_positive_share)
        kept_neg = min(kept_neg, cap)
    train = train_pos + train_neg[:kept_neg]

    meta = {
        "train_size": len(train),
        "heldout_size": len(held),
        "train_positive_share": (len(train_pos) / len(train)) if train else 0.0,
    }
    return train, held, meta


def train(data, cfg: TrainConfig, seed: int):
    """Full-batch gradient descent on (spec, y) pairs from a uniform init
    drawn from `seed`: one exact step on every row per epoch, each epoch's
    `loss_and_grad` writing into the one `Workspace` built for this call,
    updating one flat vector in place and reading it back through
    `RnnParams.from_flat`, so a step that leaves a non-finite entry raises
    ShapeError.

    Returns (params, each epoch's full-batch loss before its step). Fails
    fast when the data cannot define the task (a single class present)."""
    n = len(data)
    if n == 0:
        raise DegenerateDataError("empty training set")
    n_pos = sum(label for _, label in data)
    if n_pos == 0 or n_pos == n:
        raise DegenerateDataError(
            f"training set has {n_pos}/{n} positives; both classes are required"
        )
    work = Workspace(*pad_batch([(encode(spec), label) for spec, label in data]), cfg.hidden_size)
    theta = RnnParams.seeded(seed, cfg.hidden_size, cfg.init_scale).flatten()
    params = RnnParams.from_flat(theta, cfg.hidden_size)  # views into theta
    epoch_losses = []
    for _ in range(cfg.epochs):
        loss, g = loss_and_grad(params, work)
        epoch_losses.append(loss)
        theta -= cfg.learning_rate * g.flatten()
        params = RnnParams.from_flat(theta, cfg.hidden_size)
    return params, epoch_losses


def heldout_accuracy(params: RnnParams, data) -> float:
    """Fraction of (spec, y) pairs whose thresholded probability matches y."""
    if not data:
        raise DegenerateDataError("empty held-out set")
    hits = sum((predict(params, spec) > 0.5) == bool(label) for spec, label in data)
    return hits / len(data)


def fit(labeled, cfg: TrainConfig, seed: int, split_gen: np.random.Generator, threshold: float):
    """Split labeled (spec, y) pairs with `split_gen` (see stratified_split),
    train on the training part (see train) and score on the held-out part.
    `threshold` is the accuracy the labels were cut at, kept as provenance.

    Returns (TrainedPredictor, split meta, held-out accuracy, the last
    epoch's full-batch training loss).
    """
    train_ds, held_ds, meta = stratified_split(
        labeled, split_gen, cfg.heldout_fraction, cfg.target_positive_share
    )
    params, losses = train(train_ds, cfg, seed)
    trained = TrainedPredictor(params=params, threshold_used=threshold, train_seed=seed)
    return trained, meta, heldout_accuracy(params, held_ds), losses[-1]


# ---------------------------------------------------------------------------
# persistence


@dataclass(frozen=True)
class TrainedPredictor:
    """A trained parameter set plus the provenance needed to reuse it."""

    params: RnnParams
    threshold_used: float
    train_seed: int


def save_predictor(trained: TrainedPredictor, path) -> None:
    obj = trained.params.to_json_obj()
    obj["threshold_used"] = trained.threshold_used
    obj["train_seed"] = trained.train_seed
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_predictor(path) -> TrainedPredictor:
    with open(path) as fh, parsing(path):
        obj = json.load(fh)
        trained = TrainedPredictor(
            RnnParams.from_json_obj(obj), obj["threshold_used"], obj["train_seed"]
        )
        check_fields(trained)
    return trained


class PredictorFitness:
    """Fitness adapter: predicted probability of clearing the threshold.

    Free to evaluate: it pays no simulated seconds. Each instance
    predicts each distinct cell once and answers repeats from `predictions`,
    its memo of cell -> probability in first-scored order, which is also
    the run's record of what the search scored (top-k revalidation ranks
    it); a genome that is not a cell is refused with InvalidSpecError and
    never enters the memo. `params` must not change while in use;
    `evaluations` counts every call.
    """

    def __init__(self, params: RnnParams):
        self.params = params
        self.evaluations = 0
        self.predictions: dict[ModelSpec, float] = {}

    def evaluate(self, cell: ModelSpec) -> float:
        self.evaluations += 1
        if cell not in self.predictions:
            self.predictions[cell] = predict(self.params, cell)
        return self.predictions[cell]
