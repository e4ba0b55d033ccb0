"""Tests for the LSTM: initialization, forward pass, BPTT and Adam."""

from __future__ import annotations

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melogram
from melogram import cli
from melogram import network as nw
from melogram.network import (
    LstmParams,
    WeightsFormatError,
    WeightsMeta,
    Window,
    adam_update,
    batch_gradients,
    check_compatible,
    clip_gradients,
    fit,
    forward,
    init_adam,
    init_params,
    load_weights,
    lstm_step,
    make_rng,
    one_hot,
    save_weights,
    sigmoid,
    zeros_like_params,
)

from conftest import damaged


# The training values RunConfig defaults to, for tests that call fit directly.
TRAINING = dict(learning_rate=0.001, plateau_patience=10, plateau_threshold=1e-4, clip_norm=5.0)


def dense_forward(params, X):
    """The raw output after reading the dense input rows ``X`` from a zero state:
    ``lstm_step`` on ``W x + b`` per row, then the readout. The reference for
    ``forward``, which reads two-hot inputs as their hot columns."""
    C = h = np.zeros(params.hidden_size)
    for x in X:
        C, h = lstm_step(params, params.W @ x + params.b, C, h)
    return params.V @ h + params.c


def forward_loss(params, x, target, pitch_dim):
    """Loss of one context along the inference path: ``dense_forward``, then the
    two per-segment categorical cross-entropies. The oracle for ``batch_gradients``."""
    raw = dense_forward(params, x)
    total = 0.0
    for segment, slot in ((raw[:pitch_dim], target[0]), (raw[pitch_dim:], target[1])):
        shifted = segment - segment.max()
        total -= shifted[slot] - np.log(np.exp(shifted).sum())
    return float(total)


def finite_difference_grads(params, X, yp, yd, pitch_dim, eps=1e-5):
    """Central-difference gradient of the mean batch loss, the BPTT oracle."""

    def mean_loss():
        total = 0.0
        for b in range(len(X)):
            total += forward_loss(params, X[b], (int(yp[b]), int(yd[b])), pitch_dim)
        return total / len(X)

    grads = zeros_like_params(params)
    for name, arr in params.tensors():
        target = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            plus = mean_loss()
            arr[idx] = orig - eps
            minus = mean_loss()
            arr[idx] = orig
            target[idx] = (plus - minus) / (2 * eps)
    return grads


def max_relative_error(a: LstmParams, b: LstmParams) -> float:
    worst = 0.0
    for name, arr in a.tensors():
        other = getattr(b, name)
        denom = np.maximum(np.maximum(np.abs(arr), np.abs(other)), 1e-8)
        worst = max(worst, float((np.abs(arr - other) / denom).max()))
    return worst


def block(arr: np.ndarray, gate: str) -> np.ndarray:
    """The rows of gate ``gate`` (one of "iofc") in a fused W, U or b, as a view."""
    h = arr.shape[0] // 4
    k = "iofc".index(gate)
    return arr[k * h : (k + 1) * h]


def zero_params(input_size=4, hidden_size=3, forget_bias=0.0) -> LstmParams:
    params = zeros_like_params(init_params(input_size, hidden_size, make_rng(0)))
    block(params.b, "f")[:] += forget_bias
    return params


class TestInitParams:
    def test_recurrent_matrices_orthogonal(self):
        for h in (4, 16, 128):
            params = init_params(8, h, make_rng(1))
            for gate in "iofc":
                u = block(params.U, gate)
                assert np.abs(u.T @ u - np.eye(h)).max() < 1e-6

    def test_forget_bias_all_ones(self):
        params = init_params(89, 128, make_rng(2))
        assert np.all(block(params.b, "f") == 1.0)

    def test_other_biases_zero(self):
        params = init_params(89, 128, make_rng(2))
        for arr in (block(params.b, "i"), block(params.b, "o"), block(params.b, "c"), params.c):
            assert np.all(arr == 0.0)

    def test_input_weights_within_glorot_bound(self):
        params = init_params(89, 128, make_rng(3))
        bound = math.sqrt(6.0 / (89 + 128))
        for gate in "iofc":
            assert np.abs(block(params.W, gate)).max() <= bound

    def test_output_weights_within_glorot_bound(self):
        params = init_params(89, 128, make_rng(3))
        assert np.abs(params.V).max() <= math.sqrt(6.0 / (128 + 89))

    def test_fixed_seed_gives_per_gate_draws_in_order(self):
        # Four Glorot input blocks, four orthogonal recurrent blocks, then V,
        # each drawn from one generator in gate order i, o, f, c.
        E, H = 9, 5
        rng = make_rng(21)
        limit = math.sqrt(6.0 / (E + H))
        W = [rng.uniform(-limit, limit, size=(H, E)) for _ in range(4)]
        U = []
        for _ in range(4):
            q, r = np.linalg.qr(rng.standard_normal((H, H)))
            d = np.sign(np.diag(r))
            d[d == 0] = 1.0
            U.append(q * d)
        V = rng.uniform(-limit, limit, size=(E, H))
        params = init_params(E, H, make_rng(21))
        for k, gate in enumerate("iofc"):
            assert block(params.W, gate).tobytes() == W[k].tobytes(), gate
            assert block(params.U, gate).tobytes() == U[k].tobytes(), gate
        assert params.V.tobytes() == V.tobytes()
        assert block(params.b, "f").tolist() == [1.0] * H
        assert np.all(params.b[: 2 * H] == 0.0) and np.all(params.b[3 * H :] == 0.0)

    def test_deterministic_for_seed(self):
        a = init_params(10, 5, make_rng(7))
        b = init_params(10, 5, make_rng(7))
        assert max_relative_error(a, b) == 0.0


class TestLstmStep:
    def test_forget_gate_alone_scales_cell(self):
        # Everything zero except the forget bias: i*candidate is 0 since the
        # candidate tanh(0) = 0, so C = sigmoid(1) * C_prev.
        params = zero_params(forget_bias=1.0)
        c0 = np.array([1.0, -2.0, 0.5])
        C, _ = lstm_step(params, params.W @ np.zeros(4) + params.b, c0, np.zeros(3))
        expected = (1.0 / (1.0 + math.exp(-1.0))) * c0
        assert np.allclose(C, expected, atol=1e-12)

    def test_zero_params_zero_state_fixed_point(self):
        params = zero_params()
        C, h = lstm_step(params, params.W @ np.zeros(4) + params.b, np.zeros(3), np.zeros(3))
        assert np.all(C == 0.0)
        assert np.all(h == 0.0)

    def test_zero_preactivation_gates_are_half(self):
        # With zero weights, f = sigmoid(0) = 0.5 exactly: C = 0.5 * C_prev.
        params = zero_params()
        c0 = np.array([2.0, 2.0, 2.0])
        C, _ = lstm_step(params, params.W @ np.ones(4) + params.b, c0, np.zeros(3))
        assert np.allclose(C, 0.5 * c0, atol=1e-15)

    def test_hidden_state_bounded_and_gates_open(self):
        rng = make_rng(11)
        params = init_params(6, 5, rng)
        C, h = np.zeros(5), np.zeros(5)
        for _ in range(50):
            x = rng.normal(size=6) * 3
            C, h = lstm_step(params, params.W @ x + params.b, C, h)
            assert np.all(np.abs(h) <= 1.0)
            assert np.all(np.isfinite(C))


    def test_stack_of_states_steps_each_row(self):
        rng = make_rng(12)
        params = init_params(6, 5, rng)
        C, h = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        x = rng.normal(size=6)
        zx = params.W @ x + params.b
        stepped_C, stepped_h = lstm_step(params, zx, C, h)
        assert stepped_C.shape == stepped_h.shape == (4, 5)
        for k in range(4):
            row_C, row_h = lstm_step(params, zx, C[k], h[k])
            assert np.abs(stepped_C[k] - row_C).max() <= 1e-12
            assert np.abs(stepped_h[k] - row_h).max() <= 1e-12


def two_hot_stream(rng, n, P=59, D=30):
    """(n, 2) two-hot notes as their hot columns: a pitch slot, then P plus a duration slot."""
    return np.stack([rng.integers(0, P, n), P + rng.integers(0, D, n)], axis=1)


class ConcatenatingBank:
    """A window bank that concatenates a fresh step input on every read and
    steps on the dense one-hot vector, ``W x + b``."""

    def __init__(self, size):
        self.size, self.C, self.h = size, None, None

    def read(self, params, columns):
        zero = np.zeros((1, params.hidden_size))
        if self.h is None:
            C = h = zero
        else:
            C = np.concatenate((zero, self.C[: self.size - 1]))
            h = np.asfortranarray(np.concatenate((zero, self.h[: self.size - 1])))
        x = one_hot(np.asarray(columns), params.input_size)
        self.C, self.h = lstm_step(params, params.W @ x + params.b, C, h)


class TestForward:
    def test_zero_params_output_is_bias(self):
        params = zero_params(input_size=6, hidden_size=3)
        raw = forward(params, [(0, 3)] * 4)
        assert np.all(raw == 0.0)

    def test_order_sensitivity(self):
        rng = make_rng(1)
        params = init_params(5, 4, rng)
        a = two_hot_stream(rng, 2, P=2, D=3)
        raw_ab = forward(params, a)
        raw_ba = forward(params, a[::-1])
        assert not np.allclose(raw_ab, raw_ba)

    def test_output_dimension_matches_defaults(self):
        params = init_params(89, 128, make_rng(0))
        raw = forward(params, [(0, 59)] * 7)
        assert raw.shape == (89,)

    def test_window_bank_matches_one_shot_along_stream(self):
        # A stream of 500 one-hot notes read through one bank: the 7-note
        # seed on the first call, then one note per call. Each output is that
        # of a one-shot forward over the last 7 notes read.
        rng = make_rng(8)
        params = init_params(89, 128, rng)
        stream = two_hot_stream(rng, 506)
        bank = Window(7)
        for t in range(500):
            banked = forward(params, stream[:7] if t == 0 else stream[t + 6 : t + 7], bank)
            assert np.abs(banked - forward(params, stream[t : t + 7])).max() <= 1e-12

    def test_window_bank_equals_a_bank_that_concatenates_on_every_read(self):
        # Exactly equal, bank state included, to a bank that builds its step
        # input afresh on every read: a zero row, then the kept rows.
        rng = make_rng(9)
        params = init_params(89, 128, rng)
        stream = two_hot_stream(rng, 506)
        bank, reference = Window(7), ConcatenatingBank(7)
        for t in range(500):
            inputs = stream[:7] if t == 0 else stream[t + 6 : t + 7]
            banked = forward(params, inputs, bank)
            for columns in inputs:
                reference.read(params, columns)
            assert np.array_equal(banked, params.V @ reference.h[-1] + params.c)
            assert np.array_equal(bank.C, reference.C) and np.array_equal(bank.h, reference.h)

    def test_banks_read_alternately_equal_each_bank_alone(self):
        rng = make_rng(10)
        params = init_params(89, 128, rng)
        streams = [two_hot_stream(rng, 206), two_hot_stream(rng, 206)]

        def reads(stream, t):
            return stream[:7] if t == 0 else stream[t + 6 : t + 7]

        alone = []
        for stream in streams:
            bank = Window(7)
            alone.append([forward(params, reads(stream, t), bank) for t in range(200)])
        banks = [Window(7), Window(7)]
        for t in range(200):
            for k in (0, 1):
                assert np.array_equal(forward(params, reads(streams[k], t), banks[k]),
                                      alone[k][t])

    def test_window_bank_refuses_output_before_full(self):
        params = init_params(6, 4, make_rng(0))
        bank = Window(7)
        with pytest.raises(ValueError, match="window bank holds 7 inputs, has read 5"):
            forward(params, [(0, 3)] * 5, bank)
        with pytest.raises(ValueError, match="has read 6"):
            forward(params, [(0, 3)], bank)
        assert forward(params, [(0, 3)], bank).shape == (6,)

    @pytest.mark.parametrize("inputs, match", [
        ([], "at least one pair"),
        ([(0, -1)], r"inputs\[0\] must be two integer columns in 0\.\.5"),
        ([(0, 6)], r"inputs\[0\] must be two integer columns in 0\.\.5"),
        ([(0, 3), (0, 6)], r"inputs\[1\]"),
        ([(0, 3), (1.0, 3)], r"inputs\[1\]"),
        ([(0, 3, 4)], r"inputs\[0\]"),
        ([3], r"inputs\[0\]"),
        (np.zeros((7, 6)), r"inputs\[0\]"),
    ], ids=["empty", "negative", "past-E", "second-row", "float", "three", "scalar-row", "dense"])
    def test_refuses_inputs_that_are_not_hot_column_pairs(self, inputs, match):
        # A negative column would otherwise wrap onto another slot of W.
        params = init_params(6, 4, make_rng(0))
        bank = Window(2)
        with pytest.raises(ValueError, match=match):
            forward(params, inputs, bank)
        assert bank.h is None, "a refused input must leave the bank unread"


class TestLoss:
    # The loss is batch_gradients' mean loss over a batch of one. With V = 0
    # the raw output is the output bias c.
    def _loss(self, c, target):
        params = zero_params(input_size=89, hidden_size=3)
        params.c[:] = c
        _, value = batch_gradients(params, np.zeros((1, 2, 89)), np.array([target[0]]),
                                   np.array([target[1]]), 59)
        return value

    def test_uniform_loss_is_log_59_plus_log_30(self):
        value = self._loss(np.zeros(89), (0, 0))
        assert value == pytest.approx(math.log(59) + math.log(30), abs=1e-12)

    def test_saturated_targets_near_zero(self):
        raw = np.zeros(89)
        raw[10] = 1000.0
        raw[59 + 5] = 1000.0
        assert self._loss(raw, (10, 5)) < 1e-6

    def test_loss_non_negative(self):
        rng = make_rng(5)
        for _ in range(200):
            raw = rng.normal(size=89) * 20
            tp = int(rng.integers(0, 59))
            td = int(rng.integers(0, 30))
            assert self._loss(raw, (tp, td)) >= 0.0


# --- per-step oracles: BPTT and Adam over fresh temporaries, one step at a time ---


def oracle_batch_gradients(params, contexts, pitch_targets, dur_targets, pitch_dim):
    """BPTT one step at a time, fresh arrays for every temporary: each step has
    its own input projection and weight-gradient products."""
    X = np.ascontiguousarray(np.asarray(contexts, dtype=float).transpose(1, 0, 2))
    W, B, _ = X.shape
    H = params.hidden_size
    gates, states = [], [(np.zeros((B, H)), np.zeros((B, H)))]
    for t in range(W):
        z = states[-1][1] @ params.U.T + (X[t] @ params.W.T + params.b)
        s = 0.5 * (1.0 + np.tanh(0.5 * z[:, : 3 * H]))
        i, o, f = s[:, :H], s[:, H : 2 * H], s[:, 2 * H :]
        g = np.tanh(z[:, 3 * H :])
        C = i * g + f * states[-1][0]
        gates.append((i, o, f, g))
        states.append((C, o * np.tanh(C)))
    h = states[-1][1]

    raw = h @ params.V.T + params.c
    lsp = nw._log_softmax(raw[:, :pitch_dim])
    lsd = nw._log_softmax(raw[:, pitch_dim:])
    rows = np.arange(B)
    mean_loss = float(-(lsp[rows, pitch_targets] + lsd[rows, dur_targets]).mean())
    d_raw = np.concatenate((np.exp(lsp), np.exp(lsd)), axis=1)
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
        prev_C, prev_h = states[t]
        tC = np.tanh(states[t + 1][0])
        dC = dC_carry + dh * o * (1.0 - tC * tC)
        dC_carry = dC * f
        dz = np.concatenate((
            dC * g * i * (1.0 - i),
            dh * tC * o * (1.0 - o),
            dC * prev_C * f * (1.0 - f),
            dC * i * (1.0 - g * g),
        ), axis=1)
        grads.W += dz.T @ X[t]
        grads.U += dz.T @ prev_h
        grads.b += dz.sum(axis=0)
        dh = dz @ params.U
    return grads, mean_loss


def oracle_adam_update(params, grads, state):
    """The Adam step as a formula over fresh temporaries; ``grads`` untouched."""
    state.t += 1
    b1, b2 = nw.ADAM_BETA1, nw.ADAM_BETA2
    m_hat_scale = 1.0 / (1.0 - b1 ** state.t)
    v_hat_scale = 1.0 / (1.0 - b2 ** state.t)
    for name, theta in params.tensors():
        g, m, v = getattr(grads, name), getattr(state.m, name), getattr(state.v, name)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        theta -= state.lr * (m * m_hat_scale) / (np.sqrt(v * v_hat_scale) + nw.ADAM_EPS)


def max_scaled_error(a: LstmParams, b: LstmParams) -> float:
    """Largest |a - b| of any tensor, relative to that tensor's largest |b|."""
    return max(float(np.abs(arr - getattr(b, name)).max() / np.abs(getattr(b, name)).max())
               for name, arr in a.tensors())


def two_hot_batch(rng, B, W=7, P=59, D=30):
    """Dense (B, W, P + D) inputs with one pitch and one duration column hot, and targets."""
    columns = np.stack([rng.integers(0, P, (B, W)), P + rng.integers(0, D, (B, W))], axis=-1)
    return one_hot(columns, P + D), rng.integers(0, P, B), rng.integers(0, D, B)


class TestKernelOracles:
    @pytest.mark.parametrize("batch", [64, 13], ids=["full-batch", "partial-batch"])
    def test_batch_gradients_match_per_step_oracle(self, batch):
        rng = make_rng(21)
        params = init_params(89, 128, rng)
        X, yp, yd = two_hot_batch(rng, batch)
        grads, loss = batch_gradients(params, X, yp, yd, 59)
        want, want_loss = oracle_batch_gradients(params, X, yp, yd, 59)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
        assert max_scaled_error(grads, want) <= 1e-12

    def test_adam_matches_formula_over_ten_steps(self):
        rng = make_rng(22)
        params = init_params(9, 5, rng)
        reference = params.copy()
        state, reference_state = init_adam(params, lr=0.01), init_adam(reference, lr=0.01)
        for _ in range(10):
            grads = LstmParams(**{name: rng.standard_normal(arr.shape)
                                  for name, arr in params.tensors()})
            oracle_adam_update(reference, grads.copy(), reference_state)
            adam_update(params, grads, state)
        assert state.t == reference_state.t == 10
        for got, want in ((params, reference), (state.m, reference_state.m),
                          (state.v, reference_state.v)):
            assert max_relative_error(got, want) <= 1e-15


class TestReturnedGradients:
    def _call(self, B=64, W=7, E=89, H=16):
        rng = make_rng(B, W, E, H)
        params = init_params(E, H, rng)
        X, yp, yd = rng.random((B, W, E)), rng.integers(0, 4, B), rng.integers(0, E - 4, B)
        return batch_gradients(params, X, yp, yd, 4)

    def test_returned_gradients_survive_the_next_call(self):
        grads, _ = self._call()
        snapshot = grads.copy()
        self._call()
        for name, arr in grads.tensors():
            assert arr.tobytes() == getattr(snapshot, name).tobytes(), name


class TestBatchGradients:
    def test_matches_finite_differences(self):
        rng = make_rng(17)
        for _ in range(3):
            E = int(rng.integers(4, 9))
            H = int(rng.integers(2, 5))
            W = int(rng.integers(1, 5))
            B = int(rng.integers(1, 4))
            P = E // 2
            params = init_params(E, H, rng)
            X = rng.random((B, W, E))
            yp = rng.integers(0, P, B)
            yd = rng.integers(0, E - P, B)
            grads, _ = batch_gradients(params, X, yp, yd, P)
            oracle = finite_difference_grads(params, X, yp, yd, P)
            assert max_relative_error(grads, oracle) <= 1e-4

    def test_zero_output_matrix_kills_recurrent_grads(self):
        rng = make_rng(3)
        params = init_params(6, 3, rng)
        params.V[:] = 0.0
        X = rng.random((2, 3, 6))
        grads, _ = batch_gradients(params, X, np.array([0, 1]), np.array([0, 1]), 3)
        assert np.all(block(grads.b, "c") == 0.0)
        assert np.all(block(grads.W, "i") == 0.0)
        assert not np.all(grads.c == 0.0)  # output bias still learns

    def test_duplicated_example_equals_single(self):
        rng = make_rng(4)
        params = init_params(6, 3, rng)
        x = rng.random((1, 3, 6))
        pair = np.concatenate([x, x])
        g1, l1 = batch_gradients(params, x, np.array([1]), np.array([2]), 3)
        g2, l2 = batch_gradients(params, pair, np.array([1, 1]), np.array([2, 2]), 3)
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert max_relative_error(g1, g2) < 1e-9

    def test_mean_loss_matches_forward_loss(self):
        rng = make_rng(6)
        params = init_params(6, 3, rng)
        X = rng.random((3, 2, 6))
        yp = np.array([0, 1, 2])
        yd = np.array([2, 1, 0])
        _, batch_loss = batch_gradients(params, X, yp, yd, 3)
        expected = np.mean(
            [forward_loss(params, X[b], (int(yp[b]), int(yd[b])), 3) for b in range(3)]
        )
        assert batch_loss == pytest.approx(expected, rel=1e-12)


class TestAdam:
    def test_first_step_magnitude(self):
        params = zero_params()
        grads = zeros_like_params(params)
        block(grads.W, "i")[0, 0] = 1.0
        state = init_adam(params, lr=0.001)
        adam_update(params, grads, state)
        expected = 0.001 * 1.0 / (1.0 + 1e-8)
        assert block(params.W, "i")[0, 0] == pytest.approx(-expected, rel=1e-9)

    def test_zero_gradient_is_fixed_point(self):
        params = init_params(5, 4, make_rng(1))
        snapshot = params.copy()
        state = init_adam(params, lr=0.001)
        adam_update(params, zeros_like_params(params), state)
        assert max_relative_error(params, snapshot) == 0.0
        assert all(np.all(arr == 0.0) for _, arr in state.v.tensors())

    def test_quadratic_descent_strictly_decreases(self):
        params = zero_params()
        block(params.W, "i")[0, 0] = 1.0
        state = init_adam(params, lr=0.01)
        values = []
        for _ in range(100):
            theta = block(params.W, "i")[0, 0]
            values.append(theta * theta)
            grads = zeros_like_params(params)
            block(grads.W, "i")[0, 0] = 2.0 * theta
            adam_update(params, grads, state)
        values.append(block(params.W, "i")[0, 0] ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestClipGradients:
    def test_norm_reduced_to_cap(self):
        grads = zero_params()
        block(grads.W, "i")[:] = 10.0
        norm = clip_gradients(grads, 5.0)
        assert norm > 5.0
        assert nw.global_norm(grads) == pytest.approx(5.0, rel=1e-12)

    def test_small_gradients_untouched(self):
        grads = zero_params()
        block(grads.W, "i")[0, 0] = 0.5
        clip_gradients(grads, 5.0)
        assert block(grads.W, "i")[0, 0] == 0.5

    @pytest.mark.parametrize("cap", [0.0, -1.0, np.nan, np.inf])
    def test_cap_not_finite_and_positive_raises(self, cap):
        grads = zero_params()
        block(grads.W, "i")[0, 0] = 0.5
        with pytest.raises(ValueError, match="max_norm must be finite and > 0"):
            clip_gradients(grads, cap)


class TestFit:
    def _toy_data(self, rng, n=40, E=12, W=3, P=8):
        # One hot column per input vector, (n, W, 1).
        X = np.zeros((n, W, 1), dtype=np.int64)
        yp = rng.integers(0, P, n)
        yd = rng.integers(0, E - P, n)
        for k in range(n):
            for t in range(W):
                X[k, t, 0] = rng.integers(0, E)
        return X, yp, yd

    def test_batches_are_dense_rows_of_the_hot_columns(self, monkeypatch):
        rng = make_rng(3)
        X, yp, yd = self._toy_data(rng, n=20)
        seen = []
        real = nw.batch_gradients

        def recording(params, contexts, pitch_targets, dur_targets, pitch_dim):
            seen.append((contexts, pitch_targets, dur_targets))
            return real(params, contexts, pitch_targets, dur_targets, pitch_dim)

        monkeypatch.setattr(nw, "batch_gradients", recording)
        fit(init_params(12, 4, rng), X, yp, yd, 8, epochs=1, batch_size=8, rng=make_rng(4),
            **TRAINING)
        order = make_rng(4).permutation(20)
        dense = one_hot(X, 12)
        assert [len(batch[0]) for batch in seen] == [8, 8, 4]
        for start, (contexts, pitch_targets, dur_targets) in zip((0, 8, 16), seen):
            rows = order[start : start + 8]
            assert contexts.dtype == np.float64
            assert np.array_equal(contexts, dense[rows])
            assert np.array_equal(pitch_targets, yp[rows])
            assert np.array_equal(dur_targets, yd[rows])

    def test_zero_epochs_is_noop(self):
        rng = make_rng(2)
        params = init_params(12, 6, rng)
        snapshot = params.copy()
        X, yp, yd = self._toy_data(rng)
        trained, trace, kept = fit(params, X, yp, yd, 8, epochs=0, batch_size=8,
                                   rng=make_rng(3), **TRAINING)
        assert trace == [] and kept == 0
        assert max_relative_error(trained, snapshot) == 0.0

    def test_non_finite_loss_names_the_epoch(self):
        rng = make_rng(2)
        params = init_params(12, 6, rng)
        X, yp, yd = self._toy_data(rng)
        params.V[0, 0] = np.nan
        with pytest.raises(ValueError, match="epoch 1 loss is nan"):
            fit(params, X, yp, yd, 8, epochs=5, batch_size=8, rng=make_rng(3), **TRAINING)

    @pytest.mark.parametrize("threshold", [np.nan, -1.0])
    def test_refuses_plateau_threshold_not_finite_and_non_negative(self, threshold):
        rng = make_rng(2)
        params = init_params(12, 6, rng)
        X, yp, yd = self._toy_data(rng)
        with pytest.raises(ValueError, match="plateau_threshold must be finite and >= 0"):
            fit(params, X, yp, yd, 8, epochs=5, batch_size=8, rng=make_rng(3),
                **{**TRAINING, "plateau_threshold": threshold})

    def test_same_seed_gives_identical_traces(self):
        rng = make_rng(5)
        X, yp, yd = self._toy_data(rng)
        runs = []
        for _ in range(2):
            params = init_params(12, 6, make_rng(1))
            _, trace, _ = fit(params, X, yp, yd, 8, epochs=5, batch_size=8, rng=make_rng(2),
                              **TRAINING)
            runs.append((params, trace))
        assert runs[0][1] == runs[1][1]
        assert max_relative_error(runs[0][0], runs[1][0]) == 0.0

    def test_plateau_stops_early(self):
        rng = make_rng(6)
        X, yp, yd = self._toy_data(rng, n=16)
        params = init_params(12, 4, rng)
        _, trace, _ = fit(
            params, X, yp, yd, 8, epochs=500, batch_size=16, rng=make_rng(4),
            **{**TRAINING, "learning_rate": 0.0, "plateau_patience": 5},
        )
        # Zero learning rate cannot improve: the plateau rule must fire.
        assert len(trace) == 6  # first epoch sets best, then 5 stale epochs

    def test_best_so_far_decreases(self):
        rng = make_rng(8)
        X, yp, yd = self._toy_data(rng, n=64)
        params = init_params(12, 8, rng)
        _, trace, _ = fit(params, X, yp, yd, 8, epochs=40, batch_size=16, rng=make_rng(9),
                          **{**TRAINING, "learning_rate": 0.01})
        assert min(trace) < trace[0]
        best_so_far = np.minimum.accumulate(trace)
        assert all(b <= a for a, b in zip(best_so_far, best_so_far[1:]))

    @pytest.mark.parametrize(
        "patience, epochs_run", [(21, 20), (5, 18)], ids=["epoch-cap", "plateau-stop"]
    )
    def test_returns_weights_of_best_epoch(self, patience, epochs_run):
        # At this learning rate Adam's loss spikes after epoch 12; the
        # plateau stop fires at the top of the spike (epoch 17).
        def run(epochs):
            rng = make_rng(2)
            X, yp, yd = self._toy_data(rng, n=32)
            params = init_params(12, 6, rng)
            trained, trace, kept = fit(
                params, X, yp, yd, 8, epochs=epochs, batch_size=8, rng=make_rng(102),
                **{**TRAINING, "learning_rate": 0.2, "plateau_patience": patience},
            )
            assert trained is params  # restored in place
            return trained, trace, kept

        trained, trace, kept = run(20)
        assert len(trace) == epochs_run
        best, best_epoch = np.inf, None
        for epoch, epoch_loss in enumerate(trace):
            if best - epoch_loss > 1e-4:
                best, best_epoch = epoch_loss, epoch
        tail = trace[best_epoch + 1 :]
        assert tail and all(epoch_loss > best for epoch_loss in tail)
        assert kept == best_epoch + 1

        reference, reference_trace, reference_kept = run(best_epoch + 1)
        assert reference_trace == trace[: best_epoch + 1]
        assert reference_kept == kept
        for name, arr in trained.tensors():
            assert arr.tobytes() == getattr(reference, name).tobytes(), name


class TestSigmoid:
    def test_half_at_zero_bounded_and_monotone(self):
        assert sigmoid(np.float64(0.0)) == 0.5
        z = np.linspace(-800.0, 800.0, 200_001)
        s = sigmoid(z)
        assert s.min() >= 0.0 and s.max() <= 1.0
        assert np.all(np.diff(s) >= 0.0)
        assert sigmoid(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]

    def test_exactly_zero_from_minus_38_down(self):
        # The exact logistic is 3e-17 at -38 and 1e-17 at -39.
        z = np.concatenate([np.linspace(-38.0, -40.0, 1001), [-100.0, -745.0, -1e300]])
        assert np.all(sigmoid(z) == 0.0)
        assert sigmoid(np.float64(-37.9)) > 0.0

    def test_matches_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        z = np.linspace(-40.0, 40.0, 800_001)
        assert np.abs(sigmoid(z) - expit(z)).max() <= 2.3e-16

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(melogram.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        probe = ("import sys, melogram.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


@pytest.fixture(scope="module")
def weights_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("weights") / "model.wts"
    save_weights(path, init_params(5, 2, make_rng(12)),
                 WeightsMeta(pitch_count=3, duration_count=2, hidden_size=2, window=7))
    return path.read_bytes()


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        params = init_params(17, 5, make_rng(12))
        meta = WeightsMeta(pitch_count=13, duration_count=4, hidden_size=5, window=7)
        path = tmp_path / "model.wts"
        save_weights(path, params, meta)
        loaded, loaded_meta = load_weights(path)
        assert loaded_meta == meta
        assert max_relative_error(loaded, params) == 0.0

    def test_save_returns_the_bytes_written(self, tmp_path):
        # The manifest hashes these bytes instead of reading the file back.
        path = tmp_path / "model.wts"
        data = save_weights(path, init_params(5, 2, make_rng(12)),
                            WeightsMeta(pitch_count=3, duration_count=2, hidden_size=2, window=7))
        assert data == path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wts"
        path.write_bytes(b"NOTAMODL" + bytes(64))
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(path)

    def test_shape_mismatch_rejected_on_save(self, tmp_path):
        params = init_params(17, 5, make_rng(12))
        meta = WeightsMeta(pitch_count=13, duration_count=4, hidden_size=9, window=7)
        with pytest.raises(WeightsFormatError, match="shape"):
            save_weights(tmp_path / "model.wts", params, meta)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(17, 5, make_rng(12))
        meta = WeightsMeta(pitch_count=13, duration_count=4, hidden_size=5, window=7)
        path = tmp_path / "model.wts"
        save_weights(path, params, meta)
        (tmp_path / "cut.wts").write_bytes(path.read_bytes()[:-100])
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(tmp_path / "cut.wts")

    def test_every_prefix_and_an_extra_byte_rejected(self, tmp_path):
        params = init_params(5, 2, make_rng(12))
        meta = WeightsMeta(pitch_count=3, duration_count=2, hidden_size=2, window=7)
        path = tmp_path / "model.wts"
        save_weights(path, params, meta)
        data = path.read_bytes()
        bad = tmp_path / "bad.wts"
        for cut in range(len(data)):
            bad.write_bytes(data[:cut])
            with pytest.raises(WeightsFormatError):
                load_weights(bad)
        bad.write_bytes(data + b"\x00")
        with pytest.raises(WeightsFormatError, match="after the last tensor"):
            load_weights(bad)

    def test_interrupted_save_keeps_old_file(self, tmp_path, monkeypatch):
        params = init_params(17, 5, make_rng(12))
        meta = WeightsMeta(pitch_count=13, duration_count=4, hidden_size=5, window=7)
        path = tmp_path / "model.wts"
        save_weights(path, params, meta)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(nw.os, "replace", fail)
        with pytest.raises(OSError, match="interrupted"):
            save_weights(path, init_params(17, 5, make_rng(13)), meta)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.wts"]

    def test_version_1_file_refused_by_name(self, tmp_path, caplog):
        # Magic, version 1, dimensions P D H window, then the 14 per-gate tensors.
        run_dir = tmp_path / "run"
        (run_dir / "weights").mkdir(parents=True)
        path = run_dir / "weights" / "orig.wts"
        path.write_bytes(nw.WEIGHTS_MAGIC + struct.pack("<6I", 1, 59, 30, 128, 7, 14))
        with pytest.raises(WeightsFormatError, match="version 1 .*retrain"):
            load_weights(path)
        code = cli.main(["generate", "--run-dir", str(run_dir), "--mode", "orig", "-n", "5",
                         "--seed-phrase", "60:4,62:4,64:4,65:4,67:4,69:4,71:4"])
        assert code == cli.EXIT_VALIDATION
        assert "weights format version 1 " in caplog.text
        assert "retrain" in caplog.text

    def test_check_compatible_names_both_dimensions(self):
        meta = WeightsMeta(pitch_count=59, duration_count=30, hidden_size=128, window=7)
        with pytest.raises(WeightsFormatError, match="128.*64"):
            check_compatible(meta, hidden_size=64)
        check_compatible(meta, hidden_size=128, window=7)  # no error

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_only_format_error_escapes(self, weights_bytes, tmp_path_factory, data):
        blob = data.draw(st.one_of(
            st.binary(max_size=400),
            st.binary(max_size=400).map(lambda tail: nw.WEIGHTS_MAGIC + tail),
            damaged([weights_bytes]),
        ))
        path = tmp_path_factory.getbasetemp() / "hostile.wts"
        path.write_bytes(blob)
        try:
            load_weights(path)
        except WeightsFormatError:
            pass
