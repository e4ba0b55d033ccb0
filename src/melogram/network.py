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

import math
import os
import struct
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PARAM_FIELDS = ("W", "U", "b", "V", "c")

WEIGHTS_MAGIC = b"MELOGRMW"
WEIGHTS_VERSION = 2


class WeightsFormatError(ValueError):
    """Weights file is malformed or does not match the expected dimensions."""


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function in its tanh form, ``0.5 * (1 + tanh(z / 2))``.

    It is exactly 0.5 at 0, monotone and within 2.3e-16 of the exact
    logistic over [-40, 40]. From z = -38 down it returns exactly 0, where
    the exact value is 3e-17 or less (1e-17 at -39): ``1 + tanh(z / 2)``
    rounds to 0 there. Given ``out``, which may be ``z`` itself, the result
    is written there and no temporary is made.
    """
    t = np.tanh(np.multiply(z, 0.5, out=out), out=out)
    return np.multiply(np.add(t, 1.0, out=out), 0.5, out=out)


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


def _cell(z: np.ndarray, gates: np.ndarray, *, C_prev: np.ndarray, C: np.ndarray,
          h: np.ndarray) -> None:
    """The gate equations on the pre-activations ``z = W x + U h_prev + b``.

    ``z`` is (4H,) or (k, 4H). ``gates``, (4, H) or (4, k, H), receives i, o,
    f and the candidate g, and ``C`` and ``h`` the state after ``C_prev``.
    """
    z = z.reshape(z.shape[:-1] + (4, -1)).swapaxes(0, -2)
    sigmoid(z[:3], out=gates[:3])
    np.tanh(z[3], out=gates[3])
    i, o, f, g = gates
    np.multiply(i, g, out=C)
    C += f * C_prev
    np.multiply(o, np.tanh(C, out=h), out=h)


def lstm_step(params: LstmParams, zx: np.ndarray, C: np.ndarray, h: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Advance the recurrent state ``(C, h)`` by one input; return the new one.

    ``zx`` is the input's ``W x + b`` (4H,). ``C`` and ``h`` are one state (H,)
    or a stack of k states (k, H) that all read it; the recurrent product of
    a stack runs as one matrix product.
    """
    z = h @ params.U.T
    z += zx
    new_C, new_h = np.empty(C.shape), np.empty(C.shape)
    _cell(z, np.empty((4,) + C.shape), C_prev=C, C=new_C, h=new_h)
    return new_C, new_h


@dataclass
class Window:
    """A bank of recurrences over the last ``size`` inputs of one stream.

    Row k of the state ``C``, ``h`` has read the stream's last k+1 inputs
    from a zero state, so the last row of a full bank has read exactly the
    last ``size`` inputs, as training reads a window. One more input costs
    one step of the (size, H) stack: the oldest row leaves, a zero row
    enters and every row reads the input. The step reads its input state
    from two (size, H) buffers of the bank's own: a zero first row, then
    the kept rows, copied in on each read.
    """

    size: int
    C: np.ndarray | None = None
    h: np.ndarray | None = None
    _C_in: np.ndarray = field(init=False, repr=False)
    _h_in: np.ndarray = field(init=False, repr=False)

    def read(self, params: LstmParams, inputs) -> None:
        for p, q in inputs:
            if self.h is None:
                # Column-major h: OpenBLAS multiplies a (7, 128) stack by U.T in ~37 us, row-major ~58.
                shape = (self.size, params.hidden_size)
                self._C_in, self._h_in = np.zeros(shape), np.zeros(shape, order="F")
                rows = 1
            else:
                rows = min(len(self.h) + 1, self.size)
                self._C_in[1:rows] = self.C[: rows - 1]
                self._h_in[1:rows] = self.h[: rows - 1]
            zx = params.W[:, p] + params.W[:, q] + params.b
            self.C, self.h = lstm_step(params, zx, self._C_in[:rows], self._h_in[:rows])


def forward(params: LstmParams, inputs, window: Window | None = None) -> np.ndarray:
    """Read ``inputs`` into a window bank; return the raw output layer.

    Each input is a two-hot vector given as its hot columns ``(p, q)`` in
    0..E-1, read as ``W[:, p] + W[:, q] + b``: bit for bit ``W x + b``. The
    output is that of the bank's last ``size`` inputs, read from a zero
    state; without a ``window``, of a fresh bank of ``len(inputs)`` rows, so
    of ``inputs`` alone. A generation stream passes one bank, the seed phrase
    first and then each new note alone. No input, another row or a bank that
    has read fewer inputs than its size raises ``ValueError``.
    """
    E = params.input_size
    if not len(inputs):
        raise ValueError("inputs must hold at least one pair of hot columns")
    for k, row in enumerate(inputs):
        if not (hasattr(row, "__len__") and len(row) == 2
                and all(isinstance(c, (int, np.integer)) and 0 <= c < E for c in row)):
            raise ValueError(f"inputs[{k}] must be two integer columns in 0..{E - 1}, got {row!r}")
    window = Window(len(inputs)) if window is None else window
    window.read(params, inputs)
    if len(window.h) < window.size:
        raise ValueError(f"window bank holds {window.size} inputs, has read {len(window.h)}")
    return params.V @ window.h[-1] + params.c


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
    gradient (shaped like the parameters) and the mean loss. The input
    projection and the weight gradients are one product per batch.
    """
    X = np.asarray(contexts, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"contexts must be (batch, steps, features), got {X.shape}")
    B, W, E = X.shape
    H = params.hidden_size
    # Step-major: row t*B + b of a (W*B, .) view is step t of example b. Z holds
    # the pre-activations of the forward pass, then their gradients.
    xs = np.ascontiguousarray(X.transpose(1, 0, 2))
    Z, gates = np.empty((W, B, 4 * H)), np.empty((W, 4, B, H))
    C, h = np.empty((W + 1, B, H)), np.empty((W + 1, B, H))
    np.matmul(xs.reshape(W * B, E), params.W.T, out=Z.reshape(W * B, 4 * H))
    Z += params.b
    C[0] = h[0] = 0.0
    for t in range(W):
        # gates[t] holds the recurrent product until the cell writes the gates.
        Z[t] += np.matmul(h[t], params.U.T, out=gates[t].reshape(B, 4 * H))
        _cell(Z[t], gates[t], C_prev=C[t], C=C[t + 1], h=h[t + 1])

    raw = h[W] @ params.V.T + params.c
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

    dh = d_raw @ params.V
    dC = np.zeros((B, H))
    for t in reversed(range(W)):
        i, o, f, g = gates[t]
        di, do, df, dg = (Z[t, :, k * H : (k + 1) * H] for k in range(4))
        tanh_C = np.tanh(C[t + 1])
        dC += dh * o * (1.0 - tanh_C * tanh_C)
        np.multiply(dC * g * i, 1.0 - i, out=di)
        np.multiply(dh * tanh_C * o, 1.0 - o, out=do)
        np.multiply(dC * C[t] * f, 1.0 - f, out=df)
        np.multiply(dC * i, 1.0 - g * g, out=dg)
        dC *= f
        if t:
            np.matmul(Z[t], params.U, out=dh)

    dZ = Z.reshape(W * B, 4 * H)
    grads = LstmParams(W=dZ.T @ xs.reshape(W * B, E), U=dZ.T @ h[:W].reshape(W * B, H),
                       b=dZ.sum(axis=0), V=d_raw.T @ h[W], c=d_raw.sum(axis=0))
    return grads, mean_loss


def global_norm(grads: LstmParams) -> float:
    return math.sqrt(sum(float(np.vdot(arr, arr)) for _, arr in grads.tensors()))


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
    """Adam moment accumulators, per-tensor scratch, learning rate and step count.

    ``scratch`` holds, per tensor name, a (2, ...) array: the step's two
    temporaries, so an update makes no array.
    """

    m: LstmParams
    v: LstmParams
    scratch: dict[str, np.ndarray]
    lr: float
    t: int = 0


def init_adam(params: LstmParams, *, lr: float) -> AdamState:
    scratch = {name: np.empty((2,) + arr.shape) for name, arr in params.tensors()}
    return AdamState(m=zeros_like_params(params), v=zeros_like_params(params), scratch=scratch,
                     lr=lr)


def adam_update(params: LstmParams, grads: LstmParams, state: AdamState) -> None:
    """One bias-corrected Adam step, applied to the parameters in place.

    It is the plain formula ``theta -= lr * (m * m_hat) / (sqrt(v * v_hat) + eps)``
    after the moment updates, each product in that order, written into the
    tensor's scratch.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m_hat_scale = 1.0 / (1.0 - b1 ** state.t)
    v_hat_scale = 1.0 / (1.0 - b2 ** state.t)
    for name, theta in params.tensors():
        g, m, v = getattr(grads, name), getattr(state.m, name), getattr(state.v, name)
        step, denom = state.scratch[name]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=step)
        v *= b2
        v += np.multiply(np.multiply(1.0 - b2, g, out=step), g, out=step)
        np.multiply(state.lr, np.multiply(m, m_hat_scale, out=step), out=step)
        np.add(np.sqrt(np.multiply(v, v_hat_scale, out=denom), out=denom), ADAM_EPS, out=denom)
        theta -= np.divide(step, denom, out=step)


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
    best_loss, kept, kept_params = np.inf, 0, params.copy()
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                # Expanded step-major, so batch_gradients reads it without a copy.
                dense = one_hot(contexts[batch].transpose(1, 0, 2), params.input_size)
                grads, batch_loss = batch_gradients(
                    params, dense.transpose(1, 0, 2),
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
            best_loss, kept = epoch_loss, epoch
            for name, arr in kept_params.tensors():
                arr[...] = getattr(params, name)
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
    except OSError as exc:  # named by ``path``, as a direct write to it would be
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    finally:
        with suppress(OSError):  # gone once replaced, never made where no directory is
            tmp.unlink()


def _tensor_header(name: str, shape: tuple[int, ...]) -> bytes:
    """A tensor's header: its name and its shape, each after a one-byte count."""
    return struct.pack(f"<B{len(name)}sB{len(shape)}I",
                       len(name), name.encode("ascii"), len(shape), *shape)


def save_weights(path, params: LstmParams, meta: WeightsMeta) -> bytes:
    """Write a versioned binary weights container, atomically; return the bytes written.

    Layout: magic, format version (2), the four dimension fields and the
    tensor count as little-endian uint32, then each tensor of
    ``PARAM_FIELDS`` in that order: its ``_tensor_header`` and its row-major
    little-endian float64 data.
    """
    _check_shapes(params, meta)
    parts = [
        WEIGHTS_MAGIC,
        struct.pack("<6I", WEIGHTS_VERSION, meta.pitch_count, meta.duration_count,
                    meta.hidden_size, meta.window, len(PARAM_FIELDS)),
    ]
    for name, arr in params.tensors():
        parts += [_tensor_header(name, arr.shape),
                  np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    data = b"".join(parts)
    write_atomic(path, data)
    return data


def load_weights(path) -> tuple[LstmParams, WeightsMeta]:
    """Read a weights container, refusing on any dimension inconsistency.

    The dimension fields imply the whole layout: the file must be exactly as
    long as ``save_weights`` would write it, and each tensor header must equal
    the bytes ``_tensor_header`` gives for the implied shape. Every malformed
    file (bad magic, truncation anywhere, other tensor names or shapes, bytes
    after the last tensor, a NaN or infinite weight) raises
    ``WeightsFormatError``, and so does a file of format version 1, which
    stored each gate apart.
    """
    data = Path(path).read_bytes()
    if not data.startswith(WEIGHTS_MAGIC):
        raise WeightsFormatError("not a weights file (bad magic string)")
    offset = len(WEIGHTS_MAGIC) + 24
    if len(data) < offset:
        raise WeightsFormatError(f"weights file truncated at byte {len(data)}")
    version, p, d, h, w, count = struct.unpack_from("<6I", data, len(WEIGHTS_MAGIC))
    if version != WEIGHTS_VERSION:
        hint = " (one tensor per gate); retrain to write version 2" if version == 1 else ""
        raise WeightsFormatError(f"unsupported weights format version {version}{hint}")
    if count != len(PARAM_FIELDS):
        raise WeightsFormatError(f"expected {len(PARAM_FIELDS)} tensors, file has {count}")
    meta = WeightsMeta(pitch_count=p, duration_count=d, hidden_size=h, window=w)
    try:
        layout = [(name, _tensor_header(name, shape), shape)
                  for name, shape in _expected_shapes(meta).items()]
    except struct.error:
        raise WeightsFormatError(f"dimensions P={p} D={d} H={h} overflow the format") from None
    size = offset + sum(len(header) + 8 * math.prod(shape) for _, header, shape in layout)
    if len(data) != size:
        raise WeightsFormatError(f"weights file truncated at byte {len(data)}" if len(data) < size
                                 else f"{len(data) - size} unexpected bytes after the last tensor")
    arrays = {}
    for name, header, shape in layout:
        if data[offset : offset + len(header)] != header:
            raise WeightsFormatError(f"tensor {name} header does not match shape {shape}")
        offset += len(header)
        end = offset + 8 * math.prod(shape)
        arrays[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise WeightsFormatError(f"tensor {name} holds non-finite values")
        offset = end
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
