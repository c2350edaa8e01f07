"""The benchmark's three workloads over jpegkit's public functions.

Each workload builds its corpus from the seed, runs one item at a time in
the order the matching CLI subcommand calls the library, and checks every
item's outputs. A *round* is one pass over the corpus; the runner repeats
rounds, so every round does the same work and the first round's outputs are
the reference the later rounds must reproduce bit for bit.

Why these workloads (each optimisation on the roadmap needs one workload
where its layer does most of the work and one where it does almost none):

* ``codec-roundtrip`` -- PNM in, JFIF out and back, at 64², 256² and 512²
  and quality 10/50/90. JFIF entropy coding is most of the time; the
  restorer, diffjpeg and toy layers never run. Run by hand only: its
  pure-Python coding slows by up to 1.9x under other tenants' load, for
  whole runs, so BENCHMARK.json does not gate on it (see README.md).
* ``tradeoff-sweep`` -- the paper's experiment: JFIF in, restored at
  several consistency weights and seeds, every output projected and
  measured. The restorer's forward/adjoint/prior dominate; JFIF is small.
* ``oracle-check`` -- the ``theorem-check`` path over many small
  enumerable models and a few with 1k-4k states. Only ``toy`` runs.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "image", "errors", "pnm", "color", "dct", "quant", "codec", "jfif",
    "diffjpeg", "projection", "losses", "metrics", "restorer", "toy",
)

# Public calls the items make, each timed by its own span when traced.
TIMED_CALLS = (
    "pnm.read_pnm",
    "pnm.write_pnm",
    "codec.compress",
    "codec.compress_with_table",
    "codec.decompress",
    "jfif.write_jfif",
    "jfif.parse_jfif",
    "restorer.restore_with_history",
    "projection.project",
    "metrics.consistency_rmse",
    "metrics.psnr",
    "metrics.perceptual_proxy",
    "metrics.std_map",
    "losses.loss_c",
    "losses.loss_fm",
    "losses.loss_sm",
    "toy.mmse_consistency_deviation",
    "toy.fm_identity_check",
    "toy.posterior_sampler_checks",
)

# Stage functions that the timed calls run internally; the traced run
# times them by calling them directly on the workload's own inputs.
REPLAYED_CALLS = (
    "color.rgb_to_ycbcr",
    "dct.split_blocks",
    "dct.dct2",
    "dct.idct2",
    "quant.quantize",
    "diffjpeg.forward",
    "diffjpeg.apply_vjp",
    "restorer.tv_huber",
)

REPLAY_PASSES = 5
ORACLE_ATOL = 1e-12


class Jpegkit:
    """Fresh imports of the jpegkit modules, one attribute per layer."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "jpegkit" or m.startswith("jpegkit.")]:
            del sys.modules[name]
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"jpegkit.{layer}"))


def load_natural_image(root: Path, jk: Jpegkit):
    """The ``natural_image`` fixture generator from tests/conftest.py,
    compiled on its own so the benchmark needs neither pytest nor
    hypothesis."""
    path = root / "tests" / "conftest.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "natural_image"]
    if not defs:
        raise RuntimeError(f"{path} defines no natural_image")
    namespace = {"np": np, "PixelImage": jk.image.PixelImage}
    exec(compile(ast.Module(body=defs, type_ignores=[]), str(path), "exec"), namespace)
    return namespace["natural_image"]


def pnm_bytes(data: np.ndarray) -> bytes:
    """Binary PPM of an (h, w, 3) uint8 array, written without jpegkit so
    the program only ever sees generated bytes."""
    h, w, _ = data.shape
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(data, dtype=np.uint8).tobytes()


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def grid_blocks(grid) -> int:
    return sum(ch.shape[0] * ch.shape[1] for ch in grid.channels)


def nonzero_coefs(grid) -> int:
    return sum(int(np.count_nonzero(ch)) for ch in grid.channels)


class Workload:
    """Corpus plus the per-item procedure for one workload."""

    name = ""

    def __init__(self, jk: Jpegkit, seed: int):
        self.jk = jk
        self.rng = np.random.default_rng(seed)
        self.items = []  # one round, in order

    def run_item(self, item, tracer) -> tuple[bool, str]:
        """Process one item; return (outputs correct, digest of outputs)."""
        raise NotImplementedError

    def warm_up_items(self):
        """Items run untimed during set-up: the first of each input size."""
        firsts = {}
        for it in self.items:
            firsts.setdefault(it.size, it)
        return list(firsts.values())

    def corpus_digest(self) -> str:
        raise NotImplementedError

    def replay(self) -> dict:
        """Stage name -> (calls per pass, per-call seconds over all passes)."""
        return {}

    def _replay_codec_stages(self, images, tables, out):
        jk = self.jk
        level_shift = jk.codec.LEVEL_SHIFT
        for img, table in zip(images, tables):
            f = jk.image.to_float(img)
            ycc = _timed(out, "color.rgb_to_ycbcr", jk.color.rgb_to_ycbcr, f)
            kinds = jk.codec.channel_kinds(3, "ycbcr")
            for plane, kind in zip((ycc.y, ycc.cb, ycc.cr), kinds):
                q = table.for_channel_kind(kind)
                blocks = _timed(out, "dct.split_blocks", jk.dct.split_blocks, plane - level_shift, pad=True)
                coef = _timed(out, "dct.dct2", jk.dct.dct2, blocks)
                levels = _timed(out, "quant.quantize", jk.quant.quantize, coef, q)
                _timed(out, "dct.idct2", jk.dct.idct2, jk.quant.dequantize(levels, q))


def _timed(out: dict, name: str, fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    out.setdefault(name, []).append(perf_counter() - start)
    return result


def _replay(one_pass) -> dict:
    """Run one replay pass REPLAY_PASSES times; report calls per pass and
    every call's time."""
    times = {}
    for _ in range(REPLAY_PASSES):
        one_pass(times)
    return {name: (len(ts) // REPLAY_PASSES, ts) for name, ts in times.items()}


# --- codec-roundtrip ---------------------------------------------------------


@dataclass
class CodecItem:
    size: int
    quality: int
    image: np.ndarray  # the generated pixels
    pnm: bytes  # what the program reads
    ref_grid: object  # compress() of the image, made at set-up
    ref_pnm_out: bytes  # PPM of decompress(ref_grid), written by the benchmark


class CodecRoundtrip(Workload):
    """read_pnm -> compress -> write_jfif -> parse_jfif -> decompress ->
    write_pnm, as ``jpegkit encode`` followed by ``jpegkit decode``."""

    name = "codec-roundtrip"
    # (size, quality, images per round). Small images outnumber large ones
    # so per-call overhead shows; 512² q90 appears twice so the tail
    # percentile lands inside one homogeneous class.
    MIX = (
        (64, 10, 4), (64, 50, 4), (64, 90, 4),
        (256, 10, 1), (256, 50, 1), (256, 90, 1),
        (512, 10, 1), (512, 50, 1), (512, 90, 2),
    )

    def __init__(self, jk, natural_image, seed):
        super().__init__(jk, seed)
        for size, quality, count in self.MIX:
            for _ in range(count):
                img = natural_image(self.rng, size, size)
                ref = jk.codec.compress(img, quality)
                out = jk.codec.decompress(ref)
                self.items.append(
                    CodecItem(size, quality, img.data, pnm_bytes(img.data), ref, pnm_bytes(out.data))
                )

    def corpus_digest(self):
        return digest(*[(it.quality, it.pnm) for it in self.items])

    def run_item(self, it: CodecItem, tr):
        jk = self.jk
        img = tr.call("pnm.read_pnm", jk.pnm.read_pnm, it.pnm)
        grid = tr.call("codec.compress", jk.codec.compress, img, it.quality)
        data = tr.call("jfif.write_jfif", jk.jfif.write_jfif, grid)
        parsed, _ = tr.call("jfif.parse_jfif", jk.jfif.parse_jfif, data)
        pixels = tr.call("codec.decompress", jk.codec.decompress, parsed)
        out = tr.call("pnm.write_pnm", jk.pnm.write_pnm, pixels)
        ok = (
            np.array_equal(img.data, it.image)
            and grid == it.ref_grid
            and parsed == grid
            and out == it.ref_pnm_out
        )
        if tr.enabled:
            npix = it.size * it.size
            tr.count("pixels.encoded", npix)
            tr.count("pixels.decoded", npix)
            tr.count("jfif.written_bytes", len(data))
            tr.count("jfif.parsed_bytes", len(data))
            tr.count("jfif.nonzero_coefs", nonzero_coefs(grid))
            tr.count("codec.blocks", 2 * grid_blocks(grid))  # compress and decompress
        return ok, digest(data, out)

    def replay(self):
        distinct = {}
        for it in self.items:
            distinct.setdefault((it.size, it.quality), it)
        images = [self.jk.image.PixelImage(it.image) for it in distinct.values()]
        tables = [it.ref_grid.table for it in distinct.values()]
        return _replay(lambda out: self._replay_codec_stages(images, tables, out))


# --- tradeoff-sweep ----------------------------------------------------------


@dataclass
class SweepInput:
    size: int
    x: object  # clean reference, PixelImage
    x_pnm: bytes  # the reference as the program reads it
    jfif: bytes  # the compressed input as the program reads it
    ref_grid: object


@dataclass
class SweepItem:
    source: SweepInput
    lambda_c: float
    first: bool  # the input's first weight this round: parse it

    @property
    def size(self) -> int:
        return self.source.size


class TradeoffSweep(Workload):
    """Read a JFIF input and its PPM reference once, then per consistency
    weight restore several seeds, project every output, write it as PPM and
    measure it, as ``jpegkit sweep`` and ``jpegkit restore --project`` do."""

    name = "tradeoff-sweep"
    QUALITY = 10  # coarse enough for the projection's 8-bit guard to be exact
    # (block-aligned size, inputs per round): 32² is overhead-bound, 128²
    # array-bound
    SIZES = ((32, 4), (128, 1))
    LAMBDAS = (1.0, 10.0, 100.0)
    SEEDS = 4
    STEPS = 16
    STEP_SIZE = 4.0
    LAMBDA_PRIOR = 120.0

    def __init__(self, jk, natural_image, seed):
        super().__init__(jk, seed)
        self.restore_seed = int(self.rng.integers(0, 2**31))
        self.inputs = []
        for size, count in self.SIZES:
            for _ in range(count):
                x = natural_image(self.rng, size, size)
                grid = jk.codec.compress(x, self.QUALITY)
                self.inputs.append(SweepInput(size, x, pnm_bytes(x.data), jk.jfif.write_jfif(grid), grid))
        for src in self.inputs:
            for k, lam in enumerate(self.LAMBDAS):
                self.items.append(SweepItem(src, lam, k == 0))
        self._parsed = {}

    def corpus_digest(self):
        return digest(self.restore_seed, *[(s.jfif, s.x_pnm) for s in self.inputs])

    def _config(self, grid, lam):
        jk = self.jk
        return jk.restorer.RestoreConfig(
            qf=self.QUALITY,
            table=grid.table,
            weights=jk.losses.LossWeights(lambda_c=lam, lambda_prior=self.LAMBDA_PRIOR),
            steps=self.STEPS,
            step_size=self.STEP_SIZE,
            n_seeds=self.SEEDS,
            seed=self.restore_seed,
        )

    def run_item(self, it: SweepItem, tr):
        jk = self.jk
        src = it.source
        if it.first:
            grid, _ = tr.call("jfif.parse_jfif", jk.jfif.parse_jfif, src.jfif)
            y = tr.call("codec.decompress", jk.codec.decompress, grid)
            x = tr.call("pnm.read_pnm", jk.pnm.read_pnm, src.x_pnm)
            self._parsed[id(src)] = (grid, y, x)
        grid, y, x = self._parsed[id(src)]
        ok = grid == src.ref_grid and np.array_equal(x.data, src.x.data)
        cfg = self._config(grid, it.lambda_c)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = tr.call("restorer.restore_with_history", jk.restorer.restore_with_history, y, cfg)
            outs = [
                jk.image.to_pixels(tr.call("projection.project", jk.projection.project, img, grid))
                for img in run.images
            ]
            consistent = [
                tr.call("codec.compress_with_table", jk.codec.compress_with_table, o, grid.table) == grid
                for o in outs
            ]
            written = [tr.call("pnm.write_pnm", jk.pnm.write_pnm, o) for o in outs]
            cons = [
                tr.call("metrics.consistency_rmse", jk.metrics.consistency_rmse, o, y, self.QUALITY, table=grid.table)
                for o in outs
            ]
            fid = [tr.call("metrics.psnr", jk.metrics.psnr, o, x) for o in outs]
            proxy = tr.call("metrics.perceptual_proxy", jk.metrics.perceptual_proxy, outs, [x])
            batch = jk.losses.SampleBatch(y, outs, x=x, xbar=jk.image.to_float(y))
            spread = tr.call("metrics.std_map", jk.metrics.std_map, batch)
            lc = tr.call("losses.loss_c", jk.losses.loss_c, batch, self.QUALITY, table=grid.table)
            lfm = tr.call("losses.loss_fm", jk.losses.loss_fm, batch)
            lsm = tr.call("losses.loss_sm", jk.losses.loss_sm, batch)
        # a projected output that recompresses to the input grid decodes to y
        ok = ok and all(consistent) and all(c == 0.0 for c in cons)
        ok = ok and written == [pnm_bytes(o.data) for o in outs]
        ok = ok and all(np.isfinite(v) for v in (proxy, lc, lfm, lsm, *fid))
        if tr.enabled:
            tr.count("projection.attempted", len(outs))
            tr.count("projection.consistent", sum(consistent))
            tr.count("restorer.runs")
            tr.count("restorer.seed_steps", cfg.n_seeds * cfg.steps)
            tr.count("restorer.diverged", int(run.diverged))
            tr.count(
                "metrics.singular_cov_warnings",
                sum(issubclass(w.category, jk.errors.SingularCovariance) for w in caught),
            )
            if it.first:
                tr.count("pixels.decoded", src.size * src.size)
                tr.count("jfif.parsed_bytes", len(src.jfif))
                tr.count("jfif.nonzero_coefs", nonzero_coefs(grid))
            # decompress once per input, one recompression check per seed
            tr.count("codec.blocks", (int(it.first) + len(outs)) * grid_blocks(grid))
        out_digest = digest(*written, cons, fid, proxy, spread.data.tobytes(), lc, lfm, lsm)
        return ok, out_digest

    def replay(self):
        jk = self.jk
        ys = [jk.codec.decompress(s.ref_grid) for s in self.inputs]
        tables = [s.ref_grid.table for s in self.inputs]
        noise_rng = np.random.default_rng(0)
        states = [
            jk.image.FloatImage(jk.image.to_float(y).data + noise_rng.normal(0.0, 4.0, y.data.shape))
            for y in ys
        ]
        ops = [jk.diffjpeg.DiffJpegOp(t, jk.codec.CodecOptions(), y.width, y.height, y.channels) for y, t in zip(ys, tables)]
        eps = self._config(self.inputs[0].ref_grid, 1.0).huber_eps

        def one_pass(out):
            self._replay_codec_stages(ys, tables, out)
            for op, y, s in zip(ops, ys, states):
                z, vjp = _timed(out, "diffjpeg.forward", jk.diffjpeg.forward, op, s)
                r = jk.image.FloatImage(z.data - jk.image.to_float(y).data)
                _timed(out, "diffjpeg.apply_vjp", jk.diffjpeg.apply_vjp, vjp, r)
                _timed(out, "restorer.tv_huber", jk.restorer.tv_huber, s.data, eps)

        return _replay(one_pass)


# --- oracle-check ------------------------------------------------------------


@dataclass
class OracleItem:
    model: object
    observations: int


class OracleCheck(Workload):
    """mmse_consistency_deviation, fm_identity_check and
    posterior_sampler_checks per model, as ``jpegkit theorem-check``."""

    name = "oracle-check"
    # Small models: every (length, alphabet) with at most 256 states, three
    # each, with random_model's step recipe.
    SMALL = tuple((length, a) for length in range(1, 5) for a in range(2, 5))
    SMALL_COPIES = 3
    # Large models: (length, alphabet, steps, copies). Fine steps make every
    # state its own observation; coarse steps leave few observations.
    LARGE = (
        (5, 4, "fine", 2),  # 1024 states, 1024 observations
        (6, 4, (1.8, 2.16, 2.52, 2.88, 3.24, 3.6), 1),  # 4096 states, 197 observations
        (7, 3, (1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4), 1),  # 2187 states, 399 observations
    )
    # The step vectors come from this fixed seed, so every model's
    # observation count, and with it its cost, is the same whatever the
    # workload seed; the workload seed draws the priors.
    STEPS_SEED = 2211

    def __init__(self, jk, natural_image, seed):
        super().__init__(jk, seed)
        toy = jk.toy
        step_rng = np.random.default_rng(self.STEPS_SEED)
        models = []
        for _ in range(self.SMALL_COPIES):
            for length, a in self.SMALL:
                steps = np.exp(step_rng.uniform(np.log(0.3), np.log(6.0), length))
                if step_rng.random() < 0.25:
                    steps[step_rng.integers(0, length)] = float(step_rng.integers(1, 4))  # tie-prone
                models.append(toy.ToyModel(length, toy.alphabet_for_size(a), self._prior(a**length), steps))
        large = []
        for length, a, steps, copies in self.LARGE:
            for _ in range(copies):
                if steps == "fine":
                    s = np.exp(step_rng.uniform(np.log(0.3), np.log(0.45), length))
                else:
                    s = np.array(steps, dtype=float)
                large.append(toy.ToyModel(length, toy.alphabet_for_size(a), self._prior(a**length), s))
        # spread the large models through the round
        stride = max(1, len(models) // len(large))
        for k, m in enumerate(large):
            models.insert(k * (stride + 1), m)
        self.items = [OracleItem(m, len(toy.observations(m)[0])) for m in models]

    def _prior(self, n):
        raw = np.exp(self.rng.normal(0.0, 1.0, n))
        return raw / raw.sum()

    def corpus_digest(self):
        return digest(*[(it.model.length, it.model.alphabet.size, it.model.steps.tobytes(), it.model.prior.tobytes()) for it in self.items])

    def warm_up_items(self):
        return [it for it in self.items if it.model.n_states <= 16][:3]

    def run_item(self, it: OracleItem, tr):
        toy = self.jk.toy
        m = it.model
        dev = tr.call("toy.mmse_consistency_deviation", toy.mmse_consistency_deviation, m)
        fm = tr.call("toy.fm_identity_check", toy.fm_identity_check, m)
        rep = tr.call("toy.posterior_sampler_checks", toy.posterior_sampler_checks, m, toy.posterior_sampler(m))
        ok = (
            dev <= 0.5 + ORACLE_ATOL
            and fm <= ORACLE_ATOL
            and rep.inconsistent_mass <= ORACLE_ATOL
            and rep.marginal_tv <= ORACLE_ATOL
            and rep.max_posterior_gap <= ORACLE_ATOL
        )
        if tr.enabled:
            tr.count("toy.states", m.n_states)
            tr.count("toy.observations", it.observations)
        return ok, digest(dev, fm, rep.inconsistent_mass, rep.marginal_tv, rep.max_posterior_gap)


WORKLOADS = {w.name: w for w in (CodecRoundtrip, TradeoffSweep, OracleCheck)}
