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

PARAM_FIELDS = ("W", "U", "b", "V", "c")

WEIGHTS_MAGIC = b"MELOGRMW"
WEIGHTS_VERSION = 2


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

    The four gates share one affine map of (x_t, h_{t-1}): ``W`` (4H x E)
    maps the input, ``U`` (4H x H) the previous hidden state and ``b`` (4H)
    is the bias. Rows [kH, (k+1)H) of each belong to gate k in the order
    input, output, forget, candidate (i, o, f, c). ``V`` and ``c`` form the
    output layer (E x H and E): the network predicts the next input vector.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    V: np.ndarray
    c: np.ndarray

    @property
    def input_size(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.U.shape[1]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: arr.copy() for name, arr in self.tensors()})


@dataclass
class LstmState:
    """Recurrent state: memory cell C and hidden vector h."""

    C: np.ndarray
    h: np.ndarray


def zeros_like_params(params: LstmParams) -> LstmParams:
    return LstmParams(**{name: np.zeros_like(arr) for name, arr in params.tensors()})


def init_params(
    input_size: int,
    hidden_size: int,
    rng: np.random.Generator,
) -> LstmParams:
    """Initialize parameters.

    Recurrent matrices are orthogonal (QR of a standard Gaussian with the
    sign of R's diagonal folded in); input and output matrices are Glorot
    uniform; the forget-gate bias starts at all ones so early training does
    not erase the memory cell, all other biases at zero. Each gate's block
    of ``W`` and ``U`` is drawn on its own, in gate order, input blocks
    first, then ``V``.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("input and hidden sizes must be >= 1")

    def glorot(fan_out: int, fan_in: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    def orthogonal(n: int) -> np.ndarray:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        return q * d

    W = np.concatenate([glorot(hidden_size, input_size) for _ in range(4)])
    U = np.concatenate([orthogonal(hidden_size) for _ in range(4)])
    b = np.zeros(4 * hidden_size)
    b[2 * hidden_size : 3 * hidden_size] = 1.0  # forget gate
    return LstmParams(W=W, U=U, b=b, V=glorot(input_size, hidden_size), c=np.zeros(input_size))


def _cell(params: LstmParams, xw: np.ndarray, prev: LstmState):
    """The gate equations: one step from ``prev`` given the input term ``xw = W x + b``.

    ``xw`` is (..., 4H) and broadcasts against the rows of ``prev``. Returns
    the gates (i, o, f, candidate g) and the new state.
    """
    H = params.hidden_size
    z = prev.h @ params.U.T + xw
    s = sigmoid(z[..., : 3 * H])
    i, o, f = s[..., :H], s[..., H : 2 * H], s[..., 2 * H :]
    g = np.tanh(z[..., 3 * H :])
    C = i * g + f * prev.C
    return (i, o, f, g), LstmState(C=C, h=o * np.tanh(C))


def lstm_step(params: LstmParams, x: np.ndarray, prev: LstmState) -> LstmState:
    """Advance the recurrent state by one input vector.

    ``prev`` is one state, ``C`` and ``h`` of shape (H,), or a stack of k
    states of shape (k, H) that all read the same ``x``; the recurrent
    product of a stack runs as one matrix product.
    """
    return _cell(params, params.W @ x + params.b, prev)[1]


@dataclass
class Window:
    """A bank of recurrences over the last ``size`` inputs of one stream.

    Row k of ``state`` has read the stream's last k+1 inputs from a zero
    state, so the last row of a full bank has read exactly the last ``size``
    inputs, as training reads a window. One more input costs one step of the
    (size, H) stack: the oldest row leaves, a zero row enters and every row
    reads the input.
    """

    size: int
    state: LstmState | None = None

    def read(self, params: LstmParams, x: np.ndarray) -> None:
        zero = np.zeros((1, params.hidden_size))
        if self.state is None:
            prev = LstmState(C=zero, h=zero)
        else:
            keep = self.size - 1
            # Column-major h: OpenBLAS multiplies a (7, 128) stack by U.T in ~37 us, row-major ~58.
            prev = LstmState(C=np.concatenate((zero, self.state.C[:keep])),
                             h=np.asfortranarray(np.concatenate((zero, self.state.h[:keep]))))
        self.state = lstm_step(params, x, prev)


def forward(params: LstmParams, inputs: np.ndarray, window: Window | None = None) -> np.ndarray:
    """Read ``inputs`` (steps x E) into a window bank; return the raw output layer.

    The output is that of the bank's last ``size`` inputs, read from a zero
    state. Without a ``window`` the bank is a fresh one of ``len(inputs)``
    rows, so the output is that of ``inputs`` alone. A generation stream
    passes one bank, the seed phrase on the first call and then each new
    note alone. A bank that has read fewer inputs than its size raises
    ``ValueError``.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or not len(inputs) or inputs.shape[1] != params.input_size:
        raise ValueError(
            f"inputs must be (steps >= 1, {params.input_size}), got {inputs.shape}"
        )
    if window is None:
        window = Window(len(inputs))
    for x in inputs:
        window.read(params, x)
    if len(window.state.h) < window.size:
        raise ValueError(
            f"window bank holds {window.size} inputs, has read {len(window.state.h)}"
        )
    return params.V @ window.state.h[-1] + params.c


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def one_hot(columns: np.ndarray, size: int) -> np.ndarray:
    """Dense float64 array of shape (..., size) with a 1 at each given column.

    ``columns`` is (..., K) integer: the K hot columns of every row.
    """
    dense = np.zeros(columns.shape[:-1] + (size,))
    np.put_along_axis(dense, columns, 1.0, axis=-1)
    return dense


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

    # Step-major (W, B, E) copy: a row-strided (B, E) slice times W.T is ~2x slower.
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    gates, states = [], [LstmState(C=np.zeros((B, H)), h=np.zeros((B, H)))]
    for t in range(W):
        gate, state = _cell(params, X[t] @ params.W.T + params.b, states[-1])
        gates.append(gate)
        states.append(state)
    h = states[-1].h

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
        i, o, f, g = gates[t]
        prev = states[t]
        tC = np.tanh(states[t + 1].C)

        dC = dC_carry + dh * o * (1.0 - tC * tC)
        dC_carry = dC * f
        dz = np.concatenate((
            dC * g * i * (1.0 - i),
            dh * tC * o * (1.0 - o),
            dC * prev.C * f * (1.0 - f),
            dC * i * (1.0 - g * g),
        ), axis=1)

        grads.W += dz.T @ X[t]
        grads.U += dz.T @ prev.h
        grads.b += dz.sum(axis=0)
        dh = dz @ params.U

    return grads, mean_loss


def global_norm(grads: LstmParams) -> float:
    return float(np.sqrt(sum(float((arr * arr).sum()) for _, arr in grads.tensors())))


def clip_gradients(grads: LstmParams, max_norm: float) -> float:
    """Scale all gradients down to a global norm cap; returns the pre-clip norm.

    A cap that is not finite and positive raises ``ValueError``.
    """
    if not 0.0 < max_norm < np.inf:  # also false for NaN
        raise ValueError(f"max_norm must be finite and > 0, got {max_norm}")
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for _, arr in grads.tensors():
            arr *= scale
    return norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment accumulators, step count and learning rate."""

    m: LstmParams
    v: LstmParams
    lr: float
    t: int = 0


def init_adam(params: LstmParams, *, lr: float) -> AdamState:
    return AdamState(m=zeros_like_params(params), v=zeros_like_params(params), lr=lr)


def adam_update(params: LstmParams, grads: LstmParams, state: AdamState) -> None:
    """One bias-corrected Adam step, applied to the parameters in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        theta -= state.lr * (m * m_hat_scale) / (np.sqrt(v * v_hat_scale) + ADAM_EPS)


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
    learning_rate: float,
    plateau_patience: int,
    plateau_threshold: float,
    clip_norm: float,
) -> tuple[LstmParams, list[float], int]:
    """Train in shuffled mini-batches; returns the params, per-epoch losses and kept epoch.

    ``contexts`` is (N, W, K) integer hot columns (see ``one_hot``); each
    mini-batch is expanded to dense (B, W, E) inputs only for its gradient.

    The last partial batch is trained rather than dropped. Training stops at
    the epoch cap or once the best epoch loss has failed to improve by more
    than ``plateau_threshold`` for ``plateau_patience`` consecutive epochs.
    An epoch loss that is not finite raises ``ValueError`` naming the epoch;
    the overflow and invalid-value warnings numpy would print on the way
    there are silenced, so that error is the only report of a divergence.

    The returned params are those at the end of the kept epoch (counted from
    1, 0 when no epoch ran): the last epoch that beat the best earlier loss
    by more than ``plateau_threshold``. Adam's loss can spike after it, and a
    run must not end on weights the stop rule has judged worse. They are
    written back into ``params`` in place. The trace still holds the loss of
    every epoch run, so ``trace[-1]`` is the last epoch's loss and
    ``trace[kept - 1]`` that of the returned weights. A ``plateau_threshold``
    that is not finite and >= 0 raises ``ValueError``.
    """
    n = len(contexts)
    if n == 0:
        raise ValueError("training set is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= plateau_threshold < np.inf:  # also false for NaN
        raise ValueError(f"plateau_threshold must be finite and >= 0, got {plateau_threshold}")

    adam = init_adam(params, lr=learning_rate)
    trace: list[float] = []
    best_loss, kept, kept_params = np.inf, 0, None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                grads, batch_loss = batch_gradients(
                    params, one_hot(contexts[batch], params.input_size),
                    pitch_targets[batch], dur_targets[batch], pitch_dim,
                )
                clip_gradients(grads, clip_norm)
                adam_update(params, grads, adam)
                total += batch_loss * len(batch)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise ValueError(f"training diverged: epoch {epoch} loss is {epoch_loss}")
        trace.append(epoch_loss)
        if best_loss - epoch_loss > plateau_threshold:
            best_loss, kept, kept_params = epoch_loss, epoch, params.copy()
        elif epoch - kept >= plateau_patience:
            break
    if kept < len(trace):
        for name, arr in params.tensors():
            arr[...] = getattr(kept_params, name)
    return params, trace, kept


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

    Layout: magic, format version (2), the four dimension fields, then each
    tensor of ``PARAM_FIELDS`` in that order, by name, with an explicit shape
    header and row-major little-endian float64 data.
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
    names or shapes, bytes after the last tensor) raises ``WeightsFormatError``,
    and so does a file of format version 1, which stored each gate apart.
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
            hint = " (one tensor per gate); retrain to write version 2" if version == 1 else ""
            raise WeightsFormatError(f"unsupported weights format version {version}{hint}")
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
    return {"W": (4 * h, e), "U": (4 * h, h), "b": (4 * h,), "V": (e, h), "c": (e,)}


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
