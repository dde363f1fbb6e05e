"""Neural-network layers used by the MMKGR model and its baselines.

The design follows PyTorch's ``Module`` idiom: modules register parameters and
child modules automatically, expose ``parameters()`` / ``state_dict()`` and a
``training`` flag, and compute through ``__call__``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.init import xavier_uniform
from repro.nn.tensor import Tensor, concat
from repro.utils.rng import SeedLike, new_rng


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


def _value(param: Parameter, traced: bool):
    """``param`` itself for a traced forward, its raw array for an untraced one."""
    return param if traced else param.data


class Module:
    """Base class providing parameter registration and train/eval switching."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -------------------------------------------------------------- registry
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[key] = value
        object.__setattr__(self, key, value)

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its children."""
        params: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    # ------------------------------------------------------------------ modes
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------- state dict
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], copy: bool = True) -> None:
        """Install ``state`` into this module's parameters.

        With ``copy=True`` (default) values are written into the existing
        parameter arrays.  ``copy=False`` *rebinds* each parameter's ``data``
        to the given array without copying — this is how serving worker
        processes attach to a memory-mapped, read-only model arena: the
        parameter arrays stay views into the mmap, so N workers share one
        physical copy of the weights.  A module attached this way must never
        be trained in place (optimizer steps would fault on the read-only
        pages), which is exactly the contract serving wants.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            if copy:
                param.data[...] = value
            else:
                param.data = value

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    # ------------------------------------------------------------------ call
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules registered as children."""

    def __init__(self, modules: Optional[Iterable[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called")


class Linear(Module):
    """Affine transformation ``x @ W + b`` over the last axis of ``x``.

    A Tensor input records the op; a plain array runs untraced NumPy on the
    parameters' raw values and returns an array:

    >>> layer = Linear(3, 2, rng=0)
    >>> out = layer(np.ones((4, 3)))
    >>> type(out).__name__, out.shape
    ('ndarray', (4, 2))
    >>> traced = layer(Tensor(np.ones((4, 3))))
    >>> type(traced).__name__, bool(np.array_equal(traced.data, out))
    ('Tensor', True)
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng: SeedLike = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear requires positive feature dimensions")
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(rng)
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x):
        traced = isinstance(x, Tensor)
        out = x @ _value(self.weight, traced)
        if self.bias is not None:
            out = out + _value(self.bias, traced)
        return out


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: SeedLike = None):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("Embedding requires positive sizes")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        rng = new_rng(rng)
        scale = 1.0 / np.sqrt(embedding_dim)
        self.weight = Parameter(
            rng.uniform(-scale, scale, size=(num_embeddings, embedding_dim)), name="weight"
        )

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight[indices]

    def set_weights(self, values: np.ndarray) -> None:
        """Overwrite the embedding table (e.g. with pretrained TransE vectors)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.weight.data.shape:
            raise ValueError(
                f"expected shape {self.weight.data.shape}, got {values.shape}"
            )
        self.weight.data[...] = values


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            index = len(self._items)
            self._items.append(module)
            self._modules[str(index)] = module

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class ReLU(Module):
    """Rectified linear unit as a module (for use inside ``Sequential``)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout module; disabled in eval mode."""

    def __init__(self, p: float = 0.5, rng: SeedLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_shape), name="gamma")
        self.beta = Parameter(np.zeros(normalized_shape), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normed = centred / ((var + self.eps) ** 0.5)
        return normed * self.gamma + self.beta


class LSTMCell(Module):
    """A single LSTM cell.

    The paper encodes the reasoning-path history ``h_t = (e_s, r_0, e_1, ...)``
    with an LSTM (Section IV-B1).  A cell (rather than a full cuDNN-style
    layer) is sufficient because the history is consumed one step at a time as
    the agent walks the graph.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: SeedLike = None):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTMCell requires positive sizes")
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = new_rng(rng)
        # Gates are computed jointly: [input, forget, cell, output].
        self.weight_ih = Parameter(
            xavier_uniform((input_size, 4 * hidden_size), rng), name="weight_ih"
        )
        self.weight_hh = Parameter(
            xavier_uniform((hidden_size, 4 * hidden_size), rng), name="weight_hh"
        )
        # Forget-gate bias initialised to 1.0, a standard trick for stable training.
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Parameter(bias, name="bias")

    def init_state(self, batch_size: int = 1) -> Tuple[Tensor, Tensor]:
        shape = (batch_size, self.hidden_size)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))

    def forward(self, x, state):
        """One step over a ``(B, input_size)`` batch; returns ``(h_next, c_next)``.

        Traced when any of ``x``, ``h`` or ``c`` is a Tensor (so gradients
        reach the cell's weights through a live history); all-ndarray
        inputs run untraced and return arrays.
        """
        h_prev, c_prev = state
        traced = F.traced(x, h_prev, c_prev)
        gates = (
            x @ _value(self.weight_ih, traced)
            + h_prev @ _value(self.weight_hh, traced)
            + _value(self.bias, traced)
        )
        hidden = self.hidden_size
        i_gate = F.sigmoid(gates[:, 0:hidden])
        f_gate = F.sigmoid(gates[:, hidden : 2 * hidden])
        g_gate = F.tanh(gates[:, 2 * hidden : 3 * hidden])
        o_gate = F.sigmoid(gates[:, 3 * hidden : 4 * hidden])
        c_next = f_gate * c_prev + i_gate * g_gate
        h_next = o_gate * F.tanh(c_next)
        return h_next, c_next


class MLP(Module):
    """Feed-forward network with ReLU activations between layers."""

    def __init__(self, sizes: Sequence[int], rng: SeedLike = None, final_activation: bool = False):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP requires at least input and output sizes")
        rng = new_rng(rng)
        modules: List[Module] = []
        for i in range(len(sizes) - 1):
            modules.append(Linear(sizes[i], sizes[i + 1], rng=rng))
            is_last = i == len(sizes) - 2
            if not is_last or final_activation:
                modules.append(ReLU())
        self.net = Sequential(*modules)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class Bilinear(Module):
    """Low-rank bilinear (MLB-style) interaction: ``(xU) * (yV) @ P``.

    Used as a helper for baselines that need a bilinear score between two
    feature vectors; the fusion network implements its own variant following
    the paper's Eqs. (6)-(10).
    """

    def __init__(self, left_dim: int, right_dim: int, rank: int, out_dim: int = 1, rng: SeedLike = None):
        super().__init__()
        rng = new_rng(rng)
        self.left = Linear(left_dim, rank, bias=False, rng=rng)
        self.right = Linear(right_dim, rank, bias=False, rng=rng)
        self.project = Linear(rank, out_dim, bias=True, rng=rng)

    def forward(self, left: Tensor, right: Tensor) -> Tensor:
        return self.project(self.left(left) * self.right(right))
