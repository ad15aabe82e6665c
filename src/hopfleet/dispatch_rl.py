"""Dispatch policy learning: state encoding, Q-network, replay, double-Q targets.

The action space is a square of zone offsets around the vehicle (radius
``rl.action_radius``: 7 on the desk, 225 actions). The Q-function is a
fully connected ReLU network over the flattened channel crop, with
hand-written forward and backward passes so gradients can be verified by
finite differences. Targets follow the double estimator: the online network
picks the bootstrap action, the target network evaluates it, discounted by
gamma^(1 + elapsed) where ``elapsed`` counts extra ticks between an agent's
consecutive decisions. A training update takes the targets of a batch as arrays and the clipped
SGD step in place on the fresh gradients; the tests hold both, bit for bit,
to a per-row loop and an out-of-place step. The dispatch phase takes its
vehicles in chunks of ``STACK_CHUNK`` as arrays, one matrix product each
(``q_values`` states how close that is to a pass per row), each chunk's
states gathered from the tick's observation maps, zero-padded once a tick
(``observation_maps``).
"""

from __future__ import annotations

import copy
import json
import math
import zipfile
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fleet import FleetSnapshot, FleetTable
from .geo import GridWorld, ZoneId

EPSILON_FLOOR = 0.05
ACT_PROBABILITY_START = 0.3
CLIP_NORM = 10.0  # global gradient-norm cap of one SGD step
STACK_CHUNK = 64  # rows per matrix product of the dispatch phase

# the look-ahead of the observation: forecast demand over the next
# DEMAND_REACH ticks, and busy vehicles freeing within 1..reach ticks, one
# channel per reach
DEMAND_REACH = 15
FREEING_REACHES = (15, 30)
N_CHANNELS = 2 + len(FREEING_REACHES)  # demand, available now, the freeing channels
N_SCALARS = 2  # seats_free, trunk_free


class CheckpointError(ValueError):
    """The file is not a hopfleet checkpoint that this build can load."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint architecture does not match the configured network."""


# ---------------------------------------------------------------------------
# action space


def action_count(radius: int) -> int:
    return (2 * radius + 1) ** 2


def action_to_offset(index, radius: int) -> tuple:
    """The (row, col) offset of action ``index``, an int or an array."""
    side = 2 * radius + 1
    if np.any((np.asarray(index) < 0) | (np.asarray(index) >= side * side)):
        raise ValueError(f"action index {index} out of range")
    return index // side - radius, index % side - radius


def offset_to_action(dr: int, dc: int, radius: int) -> int:
    if abs(dr) > radius or abs(dc) > radius:
        raise ValueError(f"offset ({dr}, {dc}) exceeds radius {radius}")
    side = 2 * radius + 1
    return (dr + radius) * side + (dc + radius)


def action_target(grid: GridWorld, location, index, radius: int) -> ZoneId:
    """The zone action ``index`` aims at from ``location``, clamped to the grid."""
    dr, dc = action_to_offset(index, radius)
    return ZoneId(np.minimum(np.maximum(location[0] + dr, 0), grid.height - 1),
                  np.minimum(np.maximum(location[1] + dc, 0), grid.width - 1))


# ---------------------------------------------------------------------------
# state encoding


def state_dim(window: int) -> int:
    return N_CHANNELS * window * window + N_SCALARS


def observation_maps(supply: FleetSnapshot, forecast: np.ndarray, window: int) -> np.ndarray:
    """The window x window crop around every zone of the full-grid channels,
    (N_CHANNELS, height, width, window, window), a view of the channels
    zero-padded by ``window // 2``: forecast demand over the next
    DEMAND_REACH ticks, vehicles available now, and busy vehicles freeing
    within each of FREEING_REACHES. ``forecast`` holds the expected count
    per zone in one tick. The maps are the same for every vehicle of a
    tick, so a tick computes and pads them once."""
    if window % 2 == 0:
        raise ValueError("window must be odd")
    height, width = supply.available.shape
    eta, rows, cols = supply.freeing.T
    zones = rows * width + cols
    freeing = [np.bincount(zones[(eta >= 1) & (eta <= reach)], minlength=height * width)
               for reach in FREEING_REACHES]
    half = window // 2
    padded = np.zeros((N_CHANNELS, height + 2 * half, width + 2 * half))
    padded[:, half : half + height, half : half + width] = np.stack(
        [DEMAND_REACH * forecast, supply.available, *(f.reshape(height, width) for f in freeing)])
    return sliding_window_view(padded, (window, window), axis=(1, 2))


def encode_state(maps: np.ndarray, fleet: FleetTable, vids: Sequence[int]) -> np.ndarray:
    """Deterministic state vectors, one row per vehicle id of ``vids``,
    (len(vids), state_dim(window)): the crops of the tick's
    ``observation_maps`` centred on the vehicle's zone, zero off the grid,
    then its free seats and free trunk slots (N_SCALARS). Zones and
    free capacity are read from ``fleet``, a table of the maps' grid. A
    single vehicle is a batch of one; each row depends on its own vehicle
    only."""
    channels, height, width, window, _ = maps.shape
    vids = np.asarray(vids, dtype=np.intp)
    rows, cols = np.divmod(fleet.zone[vids], width)
    out = np.empty((len(vids), channels * window * window + N_SCALARS))
    crops = out[:, :-N_SCALARS].reshape(len(vids), channels, window, window)
    for channel in range(channels):  # a channel at a time keeps the temporaries small
        crops[:, channel] = maps[channel, rows, cols]
    out[:, -2] = fleet.seats_free[vids]
    out[:, -1] = fleet.trunk_free[vids]
    return out


# ---------------------------------------------------------------------------
# Q-function


class QNetwork:
    """Fully connected ReLU network mapping a state vector to action values."""

    def __init__(self, input_dim: int, n_actions: int, hidden: Sequence[int],
                 rng: np.random.Generator | None = None):
        self.input_dim = input_dim
        self.n_actions = n_actions
        self.hidden = tuple(hidden)
        rng = rng or np.random.default_rng()
        sizes = [input_dim, *hidden, n_actions]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = math.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    # -- forward ----------------------------------------------------------

    def _forward(self, x: np.ndarray) -> list:
        """Activations per layer for a (batch, input_dim) matrix."""
        acts = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w.T + b
            acts.append(np.maximum(z, 0.0) if i < len(self.weights) - 1 else z)
        return acts

    def q_values(self, x: np.ndarray) -> np.ndarray:
        """Action values of one state (input_dim,) or of a batch (batch,
        input_dim). A batch is one matrix product per layer, whose rows' last
        bits depend on its size: a dispatch chunk of the benchmark's eval
        workloads is within 4.5e-15 of a pass per row, with the same argmax."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        out = self._forward(x[None, :] if single else x)[-1]
        return out[0] if single else out

    # -- backward ---------------------------------------------------------

    def loss_and_gradients(self, states, actions, targets):
        """Mean squared TD error over selected actions, with its gradient."""
        X = np.asarray(states, dtype=float)
        a = np.asarray(actions, dtype=int)
        z = np.asarray(targets, dtype=float)
        n = X.shape[0]
        acts = self._forward(X)
        q = acts[-1]
        q_sel = q[np.arange(n), a]
        err = q_sel - z
        loss = float(np.mean(err**2))

        delta = np.zeros_like(q)
        delta[np.arange(n), a] = 2.0 * err / n
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for i in reversed(range(len(self.weights))):
            grads_w[i] = delta.T @ acts[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i]) * (acts[i] > 0)
        return loss, (grads_w, grads_b)

    def apply_gradients(self, grads, learning_rate: float):
        """One SGD step of ``learning_rate`` on ``grads`` after clipping their
        global norm at CLIP_NORM. It consumes ``grads``: each array is scaled
        in place into its step, so no parameter-sized temporary is built
        beyond the squares the norm sums."""
        grads_w, grads_b = grads
        total = math.sqrt(
            sum(float((g**2).sum()) for g in grads_w) + sum(float((g**2).sum()) for g in grads_b)
        )
        steps = [*grads_w, *grads_b]
        if total > CLIP_NORM:
            scale = CLIP_NORM / total
            for g in steps:
                g *= scale
        for p, g in zip([*self.weights, *self.biases], steps):
            g *= learning_rate
            p -= g

    # -- parameters -------------------------------------------------------

    def parameters(self) -> list:
        return [*(w.copy() for w in self.weights), *(b.copy() for b in self.biases)]

    def set_parameters(self, params: Sequence[np.ndarray]):
        """Copy in the weights then the biases, as ``parameters`` lists them;
        a wrong count, any wrong shape or any array that is not floating
        point raises CheckpointShapeError and leaves the network as it was."""
        k = len(self.weights)
        if len(params) != 2 * k:
            raise CheckpointShapeError(f"expected {2 * k} parameter arrays, got {len(params)}")
        for i, (p, own) in enumerate(zip(params, [*self.weights, *self.biases])):
            kind = "weights" if i < k else "bias"
            if p.shape != own.shape:
                raise CheckpointShapeError(
                    f"layer {i % k} {kind}: expected {own.shape}, got {p.shape}"
                )
            if not np.issubdtype(p.dtype, np.floating):
                raise CheckpointShapeError(
                    f"layer {i % k} {kind}: expected floating point, got {p.dtype}"
                )
        self.weights[:] = [w.copy() for w in params[:k]]
        self.biases[:] = [b.copy() for b in params[k:]]

    def clone(self) -> "QNetwork":
        """A network with copies of this one's weights and biases."""
        twin = copy.copy(self)
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        return twin


# ---------------------------------------------------------------------------
# replay and targets


class Transition(NamedTuple):
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    elapsed: int  # extra ticks between consecutive decisions; exponent is 1 + elapsed
    terminal: bool = False


class ReplayBuffer:
    """FIFO ring of transitions with uniform seeded sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: list[Transition] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._data)

    def push(self, tr: Transition):
        if len(self._data) < self.capacity:
            self._data.append(tr)
        else:
            self._data[self._next] = tr
            self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        if batch_size > len(self._data):
            raise ValueError("not enough transitions to sample")
        idx = rng.choice(len(self._data), size=batch_size, replace=False)
        return [self._data[i] for i in idx]


def ddqn_target(tr: Transition, online: QNetwork, target: QNetwork, gamma: float) -> float:
    """Bootstrap value: online picks the action, target evaluates it."""
    if tr.terminal:
        return float(tr.reward)
    best = int(np.argmax(online.q_values(tr.next_state)))
    return float(tr.reward + gamma ** (1 + tr.elapsed) * target.q_values(tr.next_state)[best])


def ddqn_targets(batch: Sequence[Transition], online: QNetwork, target: QNetwork, gamma: float) -> np.ndarray:
    """``ddqn_target``'s formula for a whole batch, with one forward pass per
    network. Each discount is taken with Python's ``**``: ``np.power``
    differs from it in the last bit for some exponents."""
    next_states = np.stack([tr.next_state for tr in batch])
    best = np.argmax(online.q_values(next_states), axis=1)
    boot = target.q_values(next_states)[np.arange(len(batch)), best]
    reward = np.array([tr.reward for tr in batch], dtype=float)
    terminal = np.array([tr.terminal for tr in batch], dtype=bool)
    discount = np.array([gamma ** (1 + tr.elapsed) for tr in batch], dtype=float)
    return np.where(terminal, reward, reward + discount * boot)


def train_step(
    buffer: ReplayBuffer,
    online: QNetwork,
    target: QNetwork,
    batch_size: int,
    learning_rate: float,
    gamma: float,
    rng: np.random.Generator,
):
    """One SGD step on the mean squared TD error; None when the buffer is short.

    ``learning_rate`` is the plain SGD step on the batch-mean gradient (after
    norm clipping at ``CLIP_NORM``), so one sampled transition moves its own
    value in proportion to ``learning_rate / batch_size``. The step consumes
    the gradients ``loss_and_gradients`` returns.
    """
    if len(buffer) < batch_size:
        return None
    batch = buffer.sample(batch_size, rng)
    z = ddqn_targets(batch, online, target, gamma)
    states = np.stack([tr.state for tr in batch])
    actions = [tr.action for tr in batch]
    loss, grads = online.loss_and_gradients(states, actions, z)
    online.apply_gradients(grads, learning_rate)
    return loss


def sync_target(online: QNetwork, target: QNetwork, step: int, period: int) -> bool:
    """Copy online parameters into the target exactly at multiples of period."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if step % period == 0:
        target.set_parameters(online.parameters())
        return True
    return False


def exploration_draw(n_actions: int, epsilon: float, rng: np.random.Generator) -> int | None:
    """The draws of one epsilon-greedy choice: a uniform random action with
    probability ``epsilon``, else None for the greedy one. No draw reads a
    Q-value, so a batch makes its draws before its forward pass."""
    if rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return None


def select_action(values: np.ndarray, drawn):
    """The epsilon-greedy choices over rows of action values, given their
    ``exploration_draw``s: the drawn action, or the greedy one where none
    was drawn; ties go to the lowest index. A row gives an int, a batch an array."""
    drawn = np.array(drawn, dtype=float)  # None reads as nan, an action exactly
    actions = np.where(np.isnan(drawn), np.argmax(values, axis=-1), drawn).astype(np.intp)
    return actions if actions.ndim else int(actions)


# ---------------------------------------------------------------------------
# schedules


def epsilon_at(step: int, t_n: int, floor: float = EPSILON_FLOOR) -> float:
    """Exploration rate annealed linearly from 1 to ``floor`` over t_n steps."""
    if t_n < 1:
        raise ValueError("t_n must be >= 1")
    return max(floor, 1.0 - (1.0 - floor) * step / t_n)


def act_probability_at(step: int, t_n: int, start: float = ACT_PROBABILITY_START) -> float:
    """Probability an idle vehicle acts this tick, ramped linearly to 1."""
    if t_n < 1:
        raise ValueError("t_n must be >= 1")
    return min(1.0, start + (1.0 - start) * step / t_n)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(path, online: QNetwork, target: QNetwork, step: int, extra: dict | None = None):
    header = {
        "format_version": CHECKPOINT_VERSION,
        "input_dim": online.input_dim,
        "hidden": list(online.hidden),
        "n_actions": online.n_actions,
        "step": step,
    }
    if extra:
        header["extra"] = extra
    arrays = {}
    for tag, net in (("online", online), ("target", target)):
        for i, p in enumerate(net.parameters()):
            arrays[f"{tag}_{i}"] = p
    np.savez(path, header=json.dumps(header), **arrays)


def load_checkpoint(path, expected: dict | None = None) -> tuple:
    """Load (online, target, header). ``expected`` may pin input_dim / hidden /
    n_actions; a mismatch raises CheckpointShapeError before any allocation.

    A missing file raises FileNotFoundError; anything else at ``path`` that
    is not a checkpoint raises CheckpointError."""
    try:
        blob = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path} is not a checkpoint: {exc}") from None
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} is not a checkpoint: it holds a single array")
    with blob:
        try:
            header = json.loads(str(blob["header"]))
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"{path} is not a checkpoint: no readable header ({exc})") from None
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointShapeError(f"unsupported checkpoint version {header.get('format_version')}")
        for key in ("input_dim", "hidden", "n_actions"):
            if expected and key in expected and list(np.ravel(expected[key])) != list(np.ravel(header[key])):
                raise CheckpointShapeError(
                    f"checkpoint {key}={header[key]} but configuration expects {expected[key]}"
                )
        nets = []
        for tag in ("online", "target"):
            net = QNetwork(header["input_dim"], header["n_actions"], header["hidden"],
                           rng=np.random.default_rng(0))
            names = [f"{tag}_{i}" for i in range(2 * (len(header["hidden"]) + 1))]
            missing = [name for name in names if name not in blob]
            if missing:
                raise CheckpointError(f"{path} lacks parameter arrays {', '.join(missing)}")
            net.set_parameters([blob[name] for name in names])
            nets.append(net)
    return nets[0], nets[1], header
