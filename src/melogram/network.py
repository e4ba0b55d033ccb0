"""From-scratch LSTM with a fully connected output layer.

One recurrent layer plus a linear readout. The cell follows the standard
gate equations: input, output and forget gates are sigmoids of affine maps
of (x_t, h_{t-1}); the candidate cell state is a tanh of the same form;
C_t = i*tanh_candidate + f*C_{t-1}; h_t = o*tanh(C_t). Training is exact
back-propagation through time over the full context window, optimized with
Adam. Everything is float64 numpy; no deep-learning framework involved.

Randomness comes from numpy's PCG64 generator, so a seed fully determines
initialization, shuffling and sampling on any platform.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PARAM_FIELDS = (
    "W_i", "W_o", "W_f", "W_c",
    "U_i", "U_o", "U_f", "U_c",
    "b_i", "b_o", "b_f", "b_c",
    "V", "c",
)

WEIGHTS_MAGIC = b"MELOGRMW"
WEIGHTS_VERSION = 1


class WeightsFormatError(ValueError):
    """Weights file is malformed or does not match the expected dimensions."""


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, ``0.5 * (1 + tanh(z / 2))``.

    It is exactly 0.5 at 0, monotone and within 2.3e-16 of the exact
    logistic over [-40, 40]. From z = -38 down it returns exactly 0, where
    the exact value is 3e-17 or less (1e-17 at -39): ``1 + tanh(z / 2)``
    rounds to 0 there.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def make_rng(*seed_parts: int) -> np.random.Generator:
    """Seeded PCG64 generator; extra parts derive independent substreams."""
    return np.random.default_rng(list(seed_parts))


@dataclass
class LstmParams:
    """All weight matrices and biases of the network.

    ``W_*`` map the input (H x E), ``U_*`` the previous hidden state (H x H),
    ``b_*`` are gate biases (H). ``V`` and ``c`` form the output layer
    (out x H and out).
    """

    W_i: np.ndarray
    W_o: np.ndarray
    W_f: np.ndarray
    W_c: np.ndarray
    U_i: np.ndarray
    U_o: np.ndarray
    U_f: np.ndarray
    U_c: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    V: np.ndarray
    c: np.ndarray

    @property
    def input_size(self) -> int:
        return self.W_i.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.W_i.shape[0]

    @property
    def output_size(self) -> int:
        return self.V.shape[0]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: arr.copy() for name, arr in self.tensors()})


@dataclass
class LstmState:
    """Recurrent state: memory cell C and hidden vector h."""

    C: np.ndarray
    h: np.ndarray


def zero_state(hidden_size: int) -> LstmState:
    return LstmState(C=np.zeros(hidden_size), h=np.zeros(hidden_size))


def zeros_like_params(params: LstmParams) -> LstmParams:
    return LstmParams(**{name: np.zeros_like(arr) for name, arr in params.tensors()})


def init_params(
    input_size: int,
    hidden_size: int,
    rng: np.random.Generator,
    output_size: int | None = None,
) -> LstmParams:
    """Initialize parameters.

    Recurrent matrices are orthogonal (QR of a standard Gaussian with the
    sign of R's diagonal folded in); input and output matrices are Glorot
    uniform; the forget-gate bias starts at all ones so early training does
    not erase the memory cell, all other biases at zero.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("input and hidden sizes must be >= 1")
    out = input_size if output_size is None else output_size

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    def orthogonal(n: int) -> np.ndarray:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        return q * d

    return LstmParams(
        W_i=glorot(hidden_size, input_size),
        W_o=glorot(hidden_size, input_size),
        W_f=glorot(hidden_size, input_size),
        W_c=glorot(hidden_size, input_size),
        U_i=orthogonal(hidden_size),
        U_o=orthogonal(hidden_size),
        U_f=orthogonal(hidden_size),
        U_c=orthogonal(hidden_size),
        b_i=np.zeros(hidden_size),
        b_o=np.zeros(hidden_size),
        b_f=np.ones(hidden_size),
        b_c=np.zeros(hidden_size),
        V=glorot(out, hidden_size),
        c=np.zeros(out),
    )


def lstm_step(params: LstmParams, x: np.ndarray, prev: LstmState) -> LstmState:
    """Advance the recurrent state by one input vector.

    ``prev`` is one state, ``C`` and ``h`` of shape (H,), or a stack of k
    states of shape (k, H) that all read the same ``x``; the recurrent
    products of a stack run as one matrix product per gate.
    """
    i = sigmoid(prev.h @ params.U_i.T + (params.W_i @ x + params.b_i))
    o = sigmoid(prev.h @ params.U_o.T + (params.W_o @ x + params.b_o))
    f = sigmoid(prev.h @ params.U_f.T + (params.W_f @ x + params.b_f))
    g = np.tanh(prev.h @ params.U_c.T + (params.W_c @ x + params.b_c))
    C = i * g + f * prev.C
    return LstmState(C=C, h=o * np.tanh(C))


@dataclass
class Window:
    """A bank of recurrences over the last ``size`` inputs of one stream.

    Row k of ``state`` has read the stream's last k+1 inputs from a zero
    state, so the last row of a full bank has read exactly the window that
    ``forward`` reads. One more input costs one step of the (size, H) stack:
    the oldest row leaves, a zero row enters and every row reads the input.
    ``context`` is the window the bank last read.
    """

    size: int
    state: LstmState | None = None
    context: np.ndarray | None = None

    def read(self, params: LstmParams, x: np.ndarray) -> None:
        zero = np.zeros((1, params.hidden_size))
        if self.state is None:
            prev = LstmState(C=zero, h=zero)
        else:
            keep = self.size - 1
            prev = LstmState(C=np.concatenate((zero, self.state.C[:keep])),
                             h=np.concatenate((zero, self.state.h[:keep])))
        self.state = lstm_step(params, x, prev)


def forward(params: LstmParams, context: np.ndarray, window: Window | None = None) -> np.ndarray:
    """Run a context (W x E) from a zero state; return the raw output layer.

    With a ``window`` bank of size W, a context that is the bank's previous
    one slid by one input costs a single step of the bank; any other context
    is read from a fresh bank. The result is the same either way, up to
    rounding in the last bit, so a generation stream passes one bank to
    every call.
    """
    context = np.asarray(context, dtype=float)
    if context.ndim != 2 or not len(context) or context.shape[1] != params.input_size:
        raise ValueError(
            f"context must be (steps >= 1, {params.input_size}), got {context.shape}"
        )
    if window is None:
        window = Window(len(context))
    elif len(context) != window.size:
        raise ValueError(f"context has {len(context)} steps, window bank holds {window.size}")
    if window.context is not None and np.array_equal(context[:-1], window.context[1:]):
        window.read(params, context[-1])
    else:
        window.state = None
        for x in context:
            window.read(params, x)
    window.context = context.copy()
    return params.V @ window.state.h[-1] + params.c


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss(raw: np.ndarray, target: tuple[int, int], pitch_dim: int) -> float:
    """Sum of the two per-segment categorical cross-entropies for one output."""
    lsp = _log_softmax(raw[:pitch_dim])
    lsd = _log_softmax(raw[pitch_dim:])
    return float(-(lsp[target[0]] + lsd[target[1]]))


def batch_gradients(
    params: LstmParams,
    contexts: np.ndarray,
    pitch_targets: np.ndarray,
    dur_targets: np.ndarray,
    pitch_dim: int,
) -> tuple[LstmParams, float]:
    """Exact gradient of the mean batch loss via full BPTT.

    ``contexts`` is (B, W, E); targets are integer slot indices. Returns the
    gradient (shaped like the parameters) and the mean loss.
    """
    X = np.asarray(contexts, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"contexts must be (batch, steps, features), got {X.shape}")
    B, W, _ = X.shape
    H = params.hidden_size

    i_s, o_s, f_s, g_s = [], [], [], []
    C_s, h_prev_s = [], []
    h = np.zeros((B, H))
    C = np.zeros((B, H))
    for t in range(W):
        x = X[:, t, :]
        h_prev_s.append(h)
        i = sigmoid(x @ params.W_i.T + h @ params.U_i.T + params.b_i)
        o = sigmoid(x @ params.W_o.T + h @ params.U_o.T + params.b_o)
        f = sigmoid(x @ params.W_f.T + h @ params.U_f.T + params.b_f)
        g = np.tanh(x @ params.W_c.T + h @ params.U_c.T + params.b_c)
        C = i * g + f * C
        h = o * np.tanh(C)
        i_s.append(i)
        o_s.append(o)
        f_s.append(f)
        g_s.append(g)
        C_s.append(C)

    raw = h @ params.V.T + params.c
    lsp = _log_softmax(raw[:, :pitch_dim])
    lsd = _log_softmax(raw[:, pitch_dim:])
    rows = np.arange(B)
    mean_loss = float(-(lsp[rows, pitch_targets] + lsd[rows, dur_targets]).mean())

    d_raw = np.empty_like(raw)
    d_raw[:, :pitch_dim] = np.exp(lsp)
    d_raw[:, pitch_dim:] = np.exp(lsd)
    d_raw[rows, pitch_targets] -= 1.0
    d_raw[rows, pitch_dim + dur_targets] -= 1.0
    d_raw /= B

    grads = zeros_like_params(params)
    grads.V += d_raw.T @ h
    grads.c += d_raw.sum(axis=0)
    dh = d_raw @ params.V
    dC_carry = np.zeros((B, H))

    for t in reversed(range(W)):
        x = X[:, t, :]
        i, o, f, g, C = i_s[t], o_s[t], f_s[t], g_s[t], C_s[t]
        h_prev = h_prev_s[t]
        C_prev = C_s[t - 1] if t > 0 else np.zeros((B, H))
        tC = np.tanh(C)

        do = dh * tC
        dC = dC_carry + dh * o * (1.0 - tC * tC)
        di = dC * g
        dg = dC * i
        df = dC * C_prev
        dC_carry = dC * f

        dz_i = di * i * (1.0 - i)
        dz_o = do * o * (1.0 - o)
        dz_f = df * f * (1.0 - f)
        dz_c = dg * (1.0 - g * g)

        grads.W_i += dz_i.T @ x
        grads.W_o += dz_o.T @ x
        grads.W_f += dz_f.T @ x
        grads.W_c += dz_c.T @ x
        grads.U_i += dz_i.T @ h_prev
        grads.U_o += dz_o.T @ h_prev
        grads.U_f += dz_f.T @ h_prev
        grads.U_c += dz_c.T @ h_prev
        grads.b_i += dz_i.sum(axis=0)
        grads.b_o += dz_o.sum(axis=0)
        grads.b_f += dz_f.sum(axis=0)
        grads.b_c += dz_c.sum(axis=0)

        dh = dz_i @ params.U_i + dz_o @ params.U_o + dz_f @ params.U_f + dz_c @ params.U_c

    return grads, mean_loss


def global_norm(grads: LstmParams) -> float:
    return float(np.sqrt(sum(float((arr * arr).sum()) for _, arr in grads.tensors())))


def clip_gradients(grads: LstmParams, max_norm: float) -> float:
    """Scale all gradients down to a global norm cap; returns the pre-clip norm."""
    norm = global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, arr in grads.tensors():
            arr *= scale
    return norm


@dataclass
class AdamState:
    """Adam moment accumulators and hyperparameters."""

    m: LstmParams
    v: LstmParams
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: LstmParams, lr: float = 0.001) -> AdamState:
    return AdamState(m=zeros_like_params(params), v=zeros_like_params(params), lr=lr)


def adam_update(params: LstmParams, grads: LstmParams, state: AdamState) -> None:
    """One bias-corrected Adam step, applied to the parameters in place."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m_hat_scale = 1.0 / (1.0 - b1 ** state.t)
    v_hat_scale = 1.0 / (1.0 - b2 ** state.t)
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        theta = getattr(params, name)
        theta -= state.lr * (m * m_hat_scale) / (np.sqrt(v * v_hat_scale) + state.eps)


def fit(
    params: LstmParams,
    contexts: np.ndarray,
    pitch_targets: np.ndarray,
    dur_targets: np.ndarray,
    pitch_dim: int,
    *,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    learning_rate: float = 0.001,
    plateau_patience: int = 10,
    plateau_threshold: float = 1e-4,
    clip_norm: float = 5.0,
) -> tuple[LstmParams, list[float]]:
    """Train in shuffled mini-batches; returns the params and per-epoch losses.

    The last partial batch is trained rather than dropped. Training stops at
    the epoch cap or once the best epoch loss has failed to improve by more
    than ``plateau_threshold`` for ``plateau_patience`` consecutive epochs.
    An epoch loss that is not finite raises ``ValueError`` naming the epoch;
    the overflow and invalid-value warnings numpy would print on the way
    there are silenced, so that error is the only report of a divergence.

    The returned params are those at the end of the best epoch, the one that
    last lowered the best loss by more than ``plateau_threshold``: Adam's loss
    can spike after it, and a run must not end on weights the stop rule has
    judged worse. They are written back into ``params`` in place. The trace
    still holds the loss of every epoch run, so ``trace[-1]`` is the last
    epoch's loss, not necessarily that of the returned weights.
    """
    n = len(contexts)
    if n == 0:
        raise ValueError("training set is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    adam = init_adam(params, lr=learning_rate)
    trace: list[float] = []
    best = np.inf
    best_params = None
    stale = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                grads, batch_loss = batch_gradients(
                    params, contexts[batch], pitch_targets[batch], dur_targets[batch],
                    pitch_dim,
                )
                clip_gradients(grads, clip_norm)
                adam_update(params, grads, adam)
                total += batch_loss * len(batch)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise ValueError(f"training diverged: epoch {len(trace) + 1} loss is {epoch_loss}")
        trace.append(epoch_loss)
        if best - epoch_loss > plateau_threshold:
            best = epoch_loss
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= plateau_patience:
                break
    if stale and best_params is not None:
        for name, arr in params.tensors():
            arr[...] = getattr(best_params, name)
    return params, trace


@dataclass(frozen=True)
class WeightsMeta:
    """Vocabulary and model dimensions stored alongside the tensors."""

    pitch_count: int
    duration_count: int
    hidden_size: int
    window: int


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same directory.

    ``os.replace`` swaps the finished file in, so an interrupted write never
    leaves a partial file at ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_weights(path, params: LstmParams, meta: WeightsMeta) -> None:
    """Write a versioned binary weights container, atomically.

    Layout: magic, format version, the four dimension fields, then each
    named tensor in a fixed order with an explicit shape header and
    row-major little-endian float64 data.
    """
    _check_shapes(params, meta)
    parts = [
        WEIGHTS_MAGIC,
        struct.pack("<5I", WEIGHTS_VERSION,
                    meta.pitch_count, meta.duration_count, meta.hidden_size, meta.window),
        struct.pack("<I", len(PARAM_FIELDS)),
    ]
    for name, arr in params.tensors():
        encoded = name.encode("ascii")
        parts += [
            struct.pack("<B", len(encoded)),
            encoded,
            struct.pack("<B", arr.ndim),
            struct.pack(f"<{arr.ndim}I", *arr.shape),
            np.ascontiguousarray(arr, dtype="<f8").tobytes(),
        ]
    write_atomic(path, b"".join(parts))


def load_weights(path) -> tuple[LstmParams, WeightsMeta]:
    """Read a weights container, refusing on any dimension inconsistency.

    Every malformed file (bad magic, truncation anywhere, unexpected tensor
    names or shapes, bytes after the last tensor) raises ``WeightsFormatError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise WeightsFormatError("not a weights file (bad magic string)")
    offset = len(WEIGHTS_MAGIC)
    try:
        version, p, d, h, w = struct.unpack_from("<5I", data, offset)
        offset += 20
        if version != WEIGHTS_VERSION:
            raise WeightsFormatError(f"unsupported weights format version {version}")
        meta = WeightsMeta(pitch_count=p, duration_count=d, hidden_size=h, window=w)
        expected = _expected_shapes(meta)
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if count != len(PARAM_FIELDS):
            raise WeightsFormatError(f"expected {len(PARAM_FIELDS)} tensors, file has {count}")

        arrays: dict[str, np.ndarray] = {}
        for expected_name in PARAM_FIELDS:
            (name_len,) = struct.unpack_from("<B", data, offset)
            offset += 1
            name = data[offset : offset + name_len].decode("ascii", errors="replace")
            offset += name_len
            if name != expected_name:
                raise WeightsFormatError(f"tensor {expected_name} missing, found {name}")
            (ndim,) = struct.unpack_from("<B", data, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", data, offset)
            offset += 4 * ndim
            if shape != expected[name]:
                raise WeightsFormatError(
                    f"tensor {name} has shape {shape}, expected {expected[name]}"
                )
            end = offset + 8 * int(np.prod(shape))
            if end > len(data):
                raise WeightsFormatError(f"tensor {name} data truncated")
            arrays[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy()
            offset = end
    except struct.error:
        raise WeightsFormatError(f"weights file truncated at byte {offset}") from None
    if offset != len(data):
        raise WeightsFormatError(f"{len(data) - offset} unexpected bytes after the last tensor")
    return LstmParams(**arrays), meta


def _expected_shapes(meta: WeightsMeta) -> dict[str, tuple[int, ...]]:
    e = meta.pitch_count + meta.duration_count
    h = meta.hidden_size
    expected: dict[str, tuple[int, ...]] = {}
    for gate in "iofc":
        expected[f"W_{gate}"] = (h, e)
        expected[f"U_{gate}"] = (h, h)
        expected[f"b_{gate}"] = (h,)
    expected["V"] = (e, h)
    expected["c"] = (e,)
    return expected


def _check_shapes(params: LstmParams, meta: WeightsMeta) -> None:
    expected = _expected_shapes(meta)
    for name, arr in params.tensors():
        if arr.shape != expected[name]:
            raise WeightsFormatError(
                f"tensor {name} has shape {arr.shape}, expected {expected[name]} "
                f"for dimensions P={meta.pitch_count} D={meta.duration_count} "
                f"H={meta.hidden_size}"
            )


def check_compatible(meta: WeightsMeta, **expected: int) -> None:
    """Refuse a weights file whose stored dimensions differ from the config.

    ``expected`` maps WeightsMeta field names to required values; the error
    names each mismatching dimension explicitly.
    """
    problems = [
        f"{field}: weights file has {getattr(meta, field)}, config wants {value}"
        for field, value in expected.items()
        if getattr(meta, field) != value
    ]
    if problems:
        raise WeightsFormatError("; ".join(problems))
