"""The three fusion heads: mean, MLP, and multi-view.

Every head works on batches of shape (N, dim).  A missing ("null") modality
is passed as None and materializes as an all-zeros input at the head
boundary, which is what the heads are trained to interpret via masking.

Forward passes return (embeddings, cache); the cache replays dropout masks
and batch statistics exactly in the matching backward pass.  Parameter
gradients are returned in a flat dict keyed like the parameters() names.

Training, evaluation and persistence reach every head through the `_Head`
interface; HEAD_KINDS maps each kind name to its class.
"""

import numpy as np

from .errors import ConfigurationError, ConsistencyError, DegenerateInputError, ShapeError
from .layers import (
    BatchNormLayer,
    DropoutSpec,
    LinearLayer,
    leaky_relu,
    leaky_relu_backward,
)

DEFAULT_LEAKY_SLOPE = 0.01

# Full-scale dims: audio 356, video 2048, embedding 256, MLP hidden 1330.
FULL_DIMS = {"d_a": 356, "d_v": 2048, "d_e": 256, "hidden": 1330}
DESK_DIMS = {"d_a": 16, "d_v": 32, "d_e": 8, "hidden": 24}

# Mask modes, as indices into TrainingConfig.mask_probabilities.
MASK_VIDEO, MASK_AUDIO, MASK_NONE = 0, 1, 2


def sample_mask_modes(rng, n, probabilities=(1 / 3, 1 / 3, 1 / 3)):
    """One of MASK_VIDEO / MASK_AUDIO / MASK_NONE per sample, i.i.d."""
    return rng.choice(3, size=n, p=np.asarray(probabilities))


def apply_masks(audio, video, modes):
    """Zero out the masked modality per sample, at the backbone boundary;
    returns new arrays."""
    modes = np.asarray(modes)
    if modes.dtype.kind not in "iu" or ((modes < 0) | (modes > 2)).any():
        raise ConfigurationError(f"unknown mask modes in {modes!r}")
    audio = np.where((modes == MASK_AUDIO)[:, None], 0.0, audio)
    video = np.where((modes == MASK_VIDEO)[:, None], 0.0, video)
    return audio, video


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
        layers = [_linear(tensors, name) for name in cls._linears]
        return cls(*layers, DropoutSpec(meta["dropout_p"]))

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
        """(name, layer) of every layer that holds tensors, in a fixed order."""
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
        modality masks with `config.mask_probabilities`."""
        if mask_rng is not None:
            modes = sample_mask_modes(mask_rng, len(audio), config.mask_probabilities)
            audio, video = apply_masks(audio, video, modes)
        emb, cache = self.forward(audio, video, train=True, rng=rng)
        return [(1.0, emb)], cache

    def backward_terms(self, cache, douts):
        """Parameter gradients, given the loss gradient of each term."""
        return self.backward(cache, douts[0])[0]

    def _inputs(self, audio, video, train, rng):
        """The input stage of a fused forward pass: (a, v, cache).

        A None modality becomes the null (all-zeros) input, with the other
        modality's batch size; input dropout is applied to both sides, and
        the cache starts with the head's identity and the input dropout
        masks."""
        if audio is None and video is None:
            raise DegenerateInputError("both modalities are null")
        n = np.asarray(audio if audio is not None else video).shape[0]
        a, v = (np.zeros((n, dim)) if x is None else np.asarray(x, dtype=np.float64)
                for x, dim in ((audio, self.d_a), (video, self.d_v)))
        for x, dim in ((a, self.d_a), (v, self.d_v)):
            if x.ndim != 2 or x.shape[1] != dim:
                raise ShapeError(f"expected batch of dim {dim}, got shape {x.shape}")
        a, mask_a = self.dropout.apply(a, train, rng)
        v, mask_v = self.dropout.apply(v, train, rng)
        cache = {"kind": self.kind, "head": id(self),
                 "mask_a": mask_a, "mask_v": mask_v}
        return a, v, cache

    @staticmethod
    def _input_grads(cache, grads, da, dv):
        """(grads, da, dv) with the input dropout masks applied to the input
        gradients; a train-mode pass has both masks, an eval-mode one none."""
        if cache["mask_a"] is not None:
            da, dv = da * cache["mask_a"], dv * cache["mask_v"]
        return grads, da, dv


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
    def create(cls, rng, d_a, d_v, d_e, *, hidden=None, dropout_p=0.1):
        return cls(
            LinearLayer.create(rng, d_a, d_e),
            LinearLayer.create(rng, d_v, d_e),
            DropoutSpec(dropout_p),
        )

    def forward(self, audio, video, train=False, rng=None):
        a, v, cache = self._inputs(audio, video, train, rng)
        pa, cache["a"] = self.proj_audio.forward(a)
        pv, cache["v"] = self.proj_video.forward(v)
        return 0.5 * (pa + pv), cache

    def backward(self, cache, dout):
        _check_cache(self, cache)
        dpa = 0.5 * dout
        da, dwa, dba = self.proj_audio.backward(cache["a"], dpa)
        dv, dwv, dbv = self.proj_video.backward(cache["v"], dpa)
        grads = {
            "proj_audio.weight": dwa,
            "proj_audio.bias": dba,
            "proj_video.weight": dwv,
            "proj_video.bias": dbv,
        }
        return self._input_grads(cache, grads, da, dv)


class MlpFusionHead(_Head):
    """Concatenated modalities through a 3-layer MLP.

    Each layer is linear -> leaky ReLU -> batch norm, with dropout after the
    batch norm of the first two layers.  Input dropout is applied to the two
    modality embeddings before concatenation, as in the mean head.  The
    first `d_a` inputs of the first layer are the audio side.
    """

    kind = "mlp"

    def __init__(self, layers, norms, d_a, dropout=None,
                 leaky_slope=DEFAULT_LEAKY_SLOPE):
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
        self.leaky_slope = leaky_slope

    @classmethod
    def create(cls, rng, d_a, d_v, d_e, *, hidden=None, dropout_p=0.1):
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
        return cls(layers, norms, meta["d_a"], DropoutSpec(meta["dropout_p"]),
                   meta.get("leaky_slope", DEFAULT_LEAKY_SLOPE))

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
        return [pair for i, (lin, bn) in enumerate(zip(self.layers, self.norms), start=1)
                for pair in ((f"layer{i}", lin), (f"bn{i}", bn))]

    def meta(self):
        return dict(super().meta(), hidden=self.layers[0].out_dim,
                    leaky_slope=self.leaky_slope)

    def forward(self, audio, video, train=False, rng=None):
        a, v, cache = self._inputs(audio, video, train, rng)
        x = np.concatenate([a, v], axis=1)
        cache["stages"] = []
        for i in range(3):
            z, lin_cache = self.layers[i].forward(x)
            r, relu_mask = leaky_relu(z, self.leaky_slope)
            b, bn_cache = self.norms[i].forward(r, train)
            drop_mask = None
            if i < 2:
                b, drop_mask = self.dropout.apply(b, train, rng)
            cache["stages"].append((lin_cache, relu_mask, bn_cache, drop_mask))
            x = b
        return x, cache

    def backward(self, cache, dout):
        _check_cache(self, cache)
        grads = {}
        dx = dout
        for i in reversed(range(3)):
            lin_cache, relu_mask, bn_cache, drop_mask = cache["stages"][i]
            if drop_mask is not None:
                dx = dx * drop_mask
            dx, dgamma, dbeta = self.norms[i].backward(bn_cache, dx)
            dx = leaky_relu_backward(relu_mask, self.leaky_slope, dx)
            dx, dweight, dbias = self.layers[i].backward(lin_cache, dx)
            grads[f"layer{i + 1}.weight"] = dweight
            grads[f"layer{i + 1}.bias"] = dbias
            grads[f"bn{i + 1}.gamma"] = dgamma
            grads[f"bn{i + 1}.beta"] = dbeta
        return self._input_grads(cache, grads, dx[:, : self.d_a], dx[:, self.d_a :])


class MultiViewHead(_Head):
    """Per-modality projections into a shared classification layer.

    Each modality is processed separately: projection -> shared linear layer
    -> ReLU -> (train-time) dropout.  The joint two-modality embedding is the
    mean of the two single-modality embeddings.  Training is unmasked, on
    the audio and video paths weighted by lambda_audio and lambda_video.
    """

    kind = "multiview"
    _linears = ("proj_audio", "proj_video", "shared_classifier")

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
    def create(cls, rng, d_a, d_v, d_e, *, hidden=None, dropout_p=0.1):
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
        emb_a, cache_a = self.forward_modality("audio", audio, True, rng)
        emb_v, cache_v = self.forward_modality("video", video, True, rng)
        terms = [(config.lambda_audio, emb_a), (config.lambda_video, emb_v)]
        return terms, (cache_a, cache_v)

    def backward_terms(self, cache, douts):
        grads, _ = self.backward_modality(cache[0], douts[0])
        grads_v, _ = self.backward_modality(cache[1], douts[1])
        return _add_grads(grads, grads_v)

    def forward_modality(self, modality, x, train=False, rng=None):
        if modality not in ("audio", "video"):
            raise ShapeError(f"unknown modality {modality!r}")
        proj = self.proj_audio if modality == "audio" else self.proj_video
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != proj.in_dim:
            raise ShapeError(
                f"{modality} input must have dim {proj.in_dim}, got shape {x.shape}"
            )
        p, proj_cache = proj.forward(x)
        c, shared_cache = self.shared_classifier.forward(p)
        relu_mask = c >= 0
        r = np.where(relu_mask, c, 0.0)
        out, drop_mask = self.dropout.apply(r, train, rng)
        cache = {
            "kind": self.kind,
            "head": id(self),
            "modality": modality,
            "proj": proj_cache,
            "shared": shared_cache,
            "relu_mask": relu_mask,
            "drop_mask": drop_mask,
        }
        return out, cache

    def backward_modality(self, cache, dout):
        _check_cache(self, cache)
        modality = cache["modality"]
        proj = self.proj_audio if modality == "audio" else self.proj_video
        dx = dout
        if cache["drop_mask"] is not None:
            dx = dx * cache["drop_mask"]
        dx = np.where(cache["relu_mask"], dx, 0.0)
        dp, dw_shared, db_shared = self.shared_classifier.backward(cache["shared"], dx)
        dinput, dw_proj, db_proj = proj.backward(cache["proj"], dp)
        grads = {
            f"proj_{modality}.weight": dw_proj,
            f"proj_{modality}.bias": db_proj,
            "shared_classifier.weight": dw_shared,
            "shared_classifier.bias": db_shared,
        }
        return grads, dinput

    def forward_joint(self, audio, video, train=False, rng=None):
        if audio is None or video is None:
            raise DegenerateInputError(
                "joint multi-view embedding needs both modalities; "
                "use forward_modality for a single one"
            )
        ea, cache_a = self.forward_modality("audio", audio, train, rng)
        ev, cache_v = self.forward_modality("video", video, train, rng)
        cache = {"kind": self.kind, "head": id(self), "audio": cache_a, "video": cache_v}
        return 0.5 * (ea + ev), cache

    def backward_joint(self, cache, dout):
        _check_cache(self, cache)
        grads_a, da = self.backward_modality(cache["audio"], 0.5 * dout)
        grads_v, dv = self.backward_modality(cache["video"], 0.5 * dout)
        return _add_grads(grads_a, grads_v), da, dv


def _check_cache(head, cache):
    if cache.get("kind") != head.kind or cache.get("head") != id(head):
        raise ConsistencyError("forward cache does not belong to this head")


def _add_grads(grads, more):
    """`grads` with `more` added in; names in both are summed."""
    for name, g in more.items():
        grads[name] = grads[name] + g if name in grads else g
    return grads


HEAD_KINDS = {cls.kind: cls for cls in (MeanFusionHead, MlpFusionHead, MultiViewHead)}
