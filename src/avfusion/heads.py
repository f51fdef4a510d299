"""The three fusion heads: mean, MLP, and multi-view.

Every head works on batches of shape (N, dim).  A missing ("null") modality
is passed as None and materializes as an all-zeros input at the head
boundary, which is what the heads are trained to interpret via masking.

Forward passes return (embeddings, cache); the cache replays dropout masks
and batch statistics exactly in the matching backward pass, and serves one
backward pass: the MLP head releases each stage's arrays as its backward
pass consumes them.  Backward passes write the parameter gradients into the
arrays of a flat dict keyed like the parameters() names (training passes
views of its gradient buffer), and allocate none of their own.  They form
no gradient of the head's inputs, which no caller reads.  No pass writes
into an array its caller passed in.

Training, evaluation and persistence reach every head through the `_Head`
interface; HEAD_KINDS maps each kind name to its class.
"""

import numpy as np

from .errors import ConsistencyError, DegenerateInputError, ShapeError
from .layers import (
    BatchNormLayer,
    DropoutSpec,
    LinearLayer,
    leaky_relu,
    leaky_relu_backward,
)

# Full-scale dims: audio 356, video 2048, embedding 256, MLP hidden 1330.
FULL_DIMS = {"d_a": 356, "d_v": 2048, "d_e": 256, "hidden": 1330}
DESK_DIMS = {"d_a": 16, "d_v": 32, "d_e": 8, "hidden": 24}

MASK_VIDEO, MASK_AUDIO, MASK_NONE = 0, 1, 2


# The cumulative distribution of the three modes, normalised as
# `Generator.choice(3, p=(1/3, 1/3, 1/3))` normalises it.
_MODE_CDF = np.cumsum((1 / 3, 1 / 3, 1 / 3))
_MODE_CDF /= _MODE_CDF[-1]


def sample_mask_modes(rng, n):
    """One of MASK_VIDEO / MASK_AUDIO / MASK_NONE per sample, i.i.d. with
    probability 1/3 each: the draws, and the generator state after them, of
    `rng.choice(3, size=n, p=(1/3, 1/3, 1/3))`."""
    return _MODE_CDF.searchsorted(rng.random(n), side="right")


def _linear(tensors, prefix):
    weight, bias = tensors[f"{prefix}.weight"], tensors[f"{prefix}.bias"]
    if weight.ndim != 2 or bias.shape != weight.shape[:1]:
        raise ShapeError(f"{prefix}: weight {weight.shape} and bias {bias.shape} mismatch")
    return LinearLayer(weight=weight, bias=bias)


class _Head:
    """The interface every head offers.  The defaults suit a head with one
    fused forward/backward pass whose parameters are the linear layers named
    in `_linears`."""

    _linears = ("proj_audio", "proj_video")

    @classmethod
    def from_state(cls, meta, tensors):
        """The head of checkpoint `meta` holding `tensors`, named as in state()."""
        layers = {name: _linear(tensors, name) for name in cls._linears}
        return cls(**layers, dropout=DropoutSpec(meta["dropout_p"]))

    @property
    def d_a(self):
        return self.proj_audio.in_dim

    @property
    def d_v(self):
        return self.proj_video.in_dim

    @property
    def d_e(self):
        return self.proj_audio.out_dim

    def named_layers(self):
        """(name, layer) of every layer that holds tensors, in backward
        order: the MLP's stages from the output back; the multi-view audio
        projection, shared classifier, then video projection.  The gradient
        store is laid out in this order and clipping sums the squared
        gradient norms in it; any other order changes the last bit of the
        clip factor."""
        return [(name, getattr(self, name)) for name in self._linears]

    def parameters(self):
        """(name, layer, attribute) of every trained tensor, in the order of
        named_layers(); training rebinds each attribute to its stored view."""
        return [(f"{prefix}.{attr}", layer, attr)
                for prefix, layer in self.named_layers() for attr in layer.TRAINED]

    def state(self):
        """Every tensor that eval-mode outputs depend on, by name."""
        return {f"{prefix}.{attr}": getattr(layer, attr)
                for prefix, layer in self.named_layers() for attr in layer.STATE}

    def meta(self):
        return {
            "kind": self.kind,
            "d_a": self.d_a,
            "d_v": self.d_v,
            "d_e": self.d_e,
            "dropout_p": self.dropout.probability,
        }

    def embed(self, audio, video):
        """Eval-mode embeddings; a None modality enters as the null input."""
        return self.forward(audio, video)[0]

    def loss_terms(self, audio, video, config, mask_rng=None, rng=None):
        """([(weight, train-mode embeddings)], cache); `mask_rng` draws the
        modality masks."""
        modes = None if mask_rng is None else sample_mask_modes(mask_rng, len(audio))
        emb, cache = self.forward(audio, video, train=True, rng=rng, modes=modes)
        return [(1.0, emb)], cache

    def backward_terms(self, cache, douts, grads):
        """Writes the parameter gradients, given the loss gradient of each
        term, into `grads`."""
        self.backward(cache, douts[0], grads)

    def _inputs(self, audio, video, train, rng, modes):
        """The input stage of a fused forward pass: (x, cache).

        x is a new (n, d_a + d_v) block, the audio side first.  A None
        modality is the null (all-zeros) input, with the other modality's
        batch size.  `modes`, if given, zeroes each sample's masked modality
        (see sample_mask_modes); input dropout then scales the audio side
        and the video side in place, in that order; the masks are not kept,
        as no backward pass forms an input gradient.  The cache starts with
        the head's identity."""
        if audio is None and video is None:
            raise DegenerateInputError("both modalities are null")
        n = np.shape(audio if audio is not None else video)[0]
        x = np.zeros((n, self.d_a + self.d_v))
        sides = (x[:, :self.d_a], x[:, self.d_a:])
        for side, data, masked in zip(sides, (audio, video), (MASK_AUDIO, MASK_VIDEO)):
            if data is None:
                continue
            data = np.asarray(data, dtype=np.float64)
            if data.shape != side.shape:
                raise ShapeError(f"expected a batch of shape {side.shape}, got {data.shape}")
            if modes is None:
                side[...] = data
            else:
                np.copyto(side, data, where=(modes != masked)[:, None])
        for side in sides:
            self.dropout.apply(side, train, rng)
        return x, {"kind": self.kind, "head": id(self)}


class MeanFusionHead(_Head):
    """Separate linear projections per modality, averaged."""

    kind = "mean"

    def __init__(self, proj_audio, proj_video, dropout=None):
        if proj_audio.out_dim != proj_video.out_dim:
            raise ShapeError("audio/video projections must share the output dim")
        self.proj_audio = proj_audio
        self.proj_video = proj_video
        self.dropout = dropout or DropoutSpec()

    @classmethod
    def create(cls, rng, d_a, d_v, d_e, *, hidden=None, dropout_p=DropoutSpec.probability):
        return cls(
            LinearLayer.create(rng, d_a, d_e),
            LinearLayer.create(rng, d_v, d_e),
            DropoutSpec(dropout_p),
        )

    def forward(self, audio, video, train=False, rng=None, modes=None):
        x, cache = self._inputs(audio, video, train, rng, modes)
        pa, cache["a"] = self.proj_audio.forward(x[:, :self.d_a])
        pv, cache["v"] = self.proj_video.forward(x[:, self.d_a:])
        return 0.5 * (pa + pv), cache

    def backward(self, cache, dout, grads):
        """`grads`, with the parameter gradients written into it."""
        _check_cache(self, cache)
        dpa = 0.5 * dout
        _backward_into(grads, "proj_audio", self.proj_audio, cache["a"], dpa,
                       input_grad=False)
        _backward_into(grads, "proj_video", self.proj_video, cache["v"], dpa,
                       input_grad=False)
        return grads


class MlpFusionHead(_Head):
    """Concatenated modalities through a 3-layer MLP.

    Each layer is linear -> leaky ReLU -> batch norm, with dropout after the
    batch norm of the first two layers.  Input dropout is applied to the two
    modality embeddings before concatenation, as in the mean head.  The
    first `d_a` inputs of the first layer are the audio side.
    """

    kind = "mlp"
    # Checkpoints record it in their header, and one that records another
    # slope is refused as disagreeing with its tensors.
    leaky_slope = 0.01

    def __init__(self, layers, norms, d_a, dropout=None):
        self.layers = list(layers)
        self.norms = list(norms)
        if len(self.layers) != 3 or len(self.norms) != 3:
            raise ShapeError("MLP head has exactly three linear+norm stages")
        for i, (lin, bn) in enumerate(zip(self.layers, self.norms)):
            if (i and lin.in_dim != self.layers[i - 1].out_dim) or bn.dim != lin.out_dim:
                raise ShapeError(f"MLP stage {i + 1} does not chain: linear "
                                 f"{lin.in_dim}->{lin.out_dim}, norm dim {bn.dim}")
        if not 0 < d_a < self.layers[0].in_dim:
            raise ShapeError(f"audio dim {d_a} does not split input dim "
                             f"{self.layers[0].in_dim}")
        self._d_a = d_a
        self.dropout = dropout or DropoutSpec()

    @classmethod
    def create(cls, rng, d_a, d_v, d_e, *, hidden=None, dropout_p=DropoutSpec.probability):
        dims = [d_a + d_v, hidden, hidden, d_e]
        layers = [
            LinearLayer.create(rng, dims[i], dims[i + 1]) for i in range(3)
        ]
        norms = [BatchNormLayer.create(dims[i + 1]) for i in range(3)]
        return cls(layers, norms, d_a, DropoutSpec(dropout_p))

    @classmethod
    def from_state(cls, meta, tensors):
        layers = [_linear(tensors, f"layer{i}") for i in (1, 2, 3)]
        norms = [
            BatchNormLayer(**{k: tensors[f"bn{i}.{k}"] for k in (
                "gamma", "beta", "running_mean", "running_var")})
            for i in (1, 2, 3)
        ]
        return cls(layers, norms, meta["d_a"], DropoutSpec(meta["dropout_p"]))

    @property
    def d_a(self):
        return self._d_a

    @property
    def d_v(self):
        return self.layers[0].in_dim - self._d_a

    @property
    def d_e(self):
        return self.layers[2].out_dim

    def named_layers(self):
        return [pair for i in (3, 2, 1) for pair in (
            (f"layer{i}", self.layers[i - 1]), (f"bn{i}", self.norms[i - 1]))]

    def meta(self):
        return {**super().meta(), "hidden": self.layers[0].out_dim,
                "leaky_slope": self.leaky_slope}

    def forward(self, audio, video, train=False, rng=None, modes=None):
        """Each activation exists once: the leaky ReLU and the dropout
        write over the array the stage before them made."""
        x, cache = self._inputs(audio, video, train, rng, modes)
        cache["stages"] = []
        for i in range(3):
            z, lin_cache = self.layers[i].forward(x)
            z, relu_mask = leaky_relu(z, self.leaky_slope)
            x, bn_cache = self.norms[i].forward(z, train)
            drop_mask = None
            if i < 2:
                x, drop_mask = self.dropout.apply(x, train, rng)
            cache["stages"].append((lin_cache, relu_mask, bn_cache, drop_mask))
        return x, cache

    def backward(self, cache, dout, grads):
        """`grads`, with the parameter gradients written into it.  Each
        stage's arrays leave the cache as they are consumed, so a cache
        serves one backward pass."""
        _check_cache(self, cache)
        stages = cache["stages"]
        dx = dout
        for i in reversed(range(3)):
            lin_cache, relu_mask, bn_cache, drop_mask = stages.pop()
            if drop_mask is not None:
                dx *= drop_mask  # the input gradient of the later stage
            dx = _backward_into(grads, f"bn{i + 1}", self.norms[i], bn_cache, dx)
            dx = leaky_relu_backward(relu_mask, self.leaky_slope, dx)
            dx = _backward_into(grads, f"layer{i + 1}", self.layers[i], lin_cache, dx,
                                input_grad=i > 0)
        return grads


class MultiViewHead(_Head):
    """Per-modality projections into a shared classification layer.

    Each modality has its own path: projection -> shared linear layer ->
    ReLU -> (train-time) dropout, where the paths present go through the
    shared stage in one pass, stacked on a leading path axis.  The joint
    two-modality embedding is the mean of the two single-modality
    embeddings.  Training is unmasked, on the audio and video paths
    weighted by lambda_audio and lambda_video.
    """

    kind = "multiview"
    _linears = ("proj_audio", "shared_classifier", "proj_video")

    def __init__(self, proj_audio, proj_video, shared_classifier, dropout=None):
        if proj_audio.out_dim != proj_video.out_dim:
            raise ShapeError("audio/video projections must share the output dim")
        if shared_classifier.in_dim != shared_classifier.out_dim:
            raise ShapeError("shared classifier must be square")
        if shared_classifier.in_dim != proj_audio.out_dim:
            raise ShapeError("shared classifier dim must match the projections")
        self.proj_audio = proj_audio
        self.proj_video = proj_video
        self.shared_classifier = shared_classifier
        self.dropout = dropout or DropoutSpec()

    @classmethod
    def create(cls, rng, d_a, d_v, d_e, *, hidden=None, dropout_p=DropoutSpec.probability):
        return cls(
            LinearLayer.create(rng, d_a, d_e),
            LinearLayer.create(rng, d_v, d_e),
            LinearLayer.create(rng, d_e, d_e),
            DropoutSpec(dropout_p),
        )

    def embed(self, audio, video):
        """The joint embedding, or the one present modality's path."""
        if audio is not None and video is not None:
            return self.forward_joint(audio, video)[0]
        if audio is not None:
            return self.forward_modality("audio", audio)[0]
        if video is not None:
            return self.forward_modality("video", video)[0]
        raise DegenerateInputError("empty modality exposure")

    def loss_terms(self, audio, video, config, mask_rng=None, rng=None):
        """The audio and video paths as two terms; `mask_rng` is unused."""
        out, caches = self._forward_paths({"audio": audio, "video": video}, True, rng)
        return [(config.lambda_audio, out[0]), (config.lambda_video, out[1])], caches

    def backward_terms(self, cache, douts, grads):
        self._backward_paths(cache, douts, grads)

    def forward_modality(self, modality, x):
        out, caches = self._forward_paths({modality: x})
        return out[0], caches[0]

    def backward_modality(self, cache, dout, grads):
        """`grads`, with the gradients of the modality's projection and of
        the shared classifier written into it."""
        return self._backward_paths((cache,), (dout,), grads)

    def forward_joint(self, audio, video):
        if audio is None or video is None:
            raise DegenerateInputError(
                "joint multi-view embedding needs both modalities; "
                "use forward_modality for a single one"
            )
        out, (cache_a, cache_v) = self._forward_paths({"audio": audio, "video": video})
        cache = {"kind": self.kind, "head": id(self), "audio": cache_a, "video": cache_v}
        return 0.5 * (out[0] + out[1]), cache

    def backward_joint(self, cache, dout, grads):
        """`grads`, with the parameter gradients written into it."""
        _check_cache(self, cache)
        half = 0.5 * dout
        return self._backward_paths((cache["audio"], cache["video"]), (half, half), grads)

    def _forward_paths(self, inputs, train=False, rng=None):
        """The paths of `inputs`, {modality: batch}, in that order: each
        batch through its modality's projection, then all of them, stacked
        on a leading path axis, through one shared classifier -> ReLU ->
        dropout stage.  The one dropout draw of shape (paths, n, d_e) is
        the draws of the paths one after another.

        Returns the (paths, n, d_e) embeddings and one cache per path; a
        path's cache holds its slices of the stage's arrays, and every
        path's cache the whole stage under "stage"."""
        projected, caches = [], []
        for modality, x in inputs.items():
            if modality not in ("audio", "video"):
                raise ShapeError(f"unknown modality {modality!r}")
            proj = getattr(self, f"proj_{modality}")
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 2 or x.shape[1] != proj.in_dim:
                raise ShapeError(
                    f"{modality} input must have dim {proj.in_dim}, got shape {x.shape}"
                )
            if projected and x.shape[0] != projected[0].shape[0]:
                raise ShapeError("audio and video batches differ in size")
            p, proj_cache = proj.forward(x)
            projected.append(p)
            caches.append({"kind": self.kind, "head": id(self), "modality": modality,
                           "proj": proj_cache})
        c, shared_cache = self.shared_classifier.forward(np.asarray(projected))
        relu_mask = c >= 0
        out, drop_mask = self.dropout.apply(np.where(relu_mask, c, 0.0), train, rng)
        stage = (shared_cache, relu_mask, drop_mask)
        for k, cache in enumerate(caches):
            cache.update(shared=shared_cache[k], relu_mask=relu_mask[k],
                         drop_mask=None if drop_mask is None else drop_mask[k],
                         stage=stage)
        return out, caches

    def _backward_paths(self, caches, douts, grads):
        """`grads`, with the parameter gradients of the paths of `caches`
        written into it, given each path's loss gradient in `douts`: the
        shared stage's backward pass once over the stacked paths, then each
        path's projection.  The shared classifier's gradient is the sum of
        the paths' in path order.  Every name keeps its place in `grads`,
        the order clipping sums in."""
        for cache in caches:
            _check_cache(self, cache)
        stage = caches[0]["stage"]
        shared_cache, relu_mask, drop_mask = stage
        if len(relu_mask) != len(caches) or any(c["stage"] is not stage for c in caches):
            raise ConsistencyError("path caches are not the paths of one forward pass")
        dx = np.asarray(douts)
        if drop_mask is not None:
            dx = dx * drop_mask
        dx = np.where(relu_mask, dx, 0.0)
        dp = _backward_into(grads, "shared_classifier", self.shared_classifier,
                            shared_cache, dx)
        for cache, dp_path in zip(caches, dp):
            modality = cache["modality"]
            _backward_into(grads, f"proj_{modality}", getattr(self, f"proj_{modality}"),
                           cache["proj"], dp_path, input_grad=False)
        return grads


def _check_cache(head, cache):
    if cache.get("kind") != head.kind or cache.get("head") != id(head):
        raise ConsistencyError("forward cache does not belong to this head")


def _backward_into(grads, prefix, layer, cache, dout, **kwargs):
    """The input gradient of `layer`, named `prefix`; its parameter gradients
    go into the arrays `grads` holds under their names."""
    out = [grads[f"{prefix}.{attr}"] for attr in layer.TRAINED]
    return layer.backward(cache, dout, out, **kwargs)[0]


HEAD_KINDS = {cls.kind: cls for cls in (MeanFusionHead, MlpFusionHead, MultiViewHead)}
