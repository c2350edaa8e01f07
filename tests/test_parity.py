"""Pinned sha256 digests of restorer, diffjpeg and JFIF outputs.

The restorer and diffjpeg digests were taken from the per-seed, per-image
implementation that the batched one replaced; any change to the
arithmetic, its order or the random draws shows up here as a different
digest. They were taken with numpy 2.4 and its OpenBLAS 0.3.31, when the
DCT still ran as two 8x8 products per block; it now runs as strided GEMMs
over whole planes and gives the same digests. That OpenBLAS is built for
many CPUs (DYNAMIC_ARCH) and picks its kernel at load time: the digests
are those of its SkylakeX kernel, which it picks on an AVX-512 Xeon. A
kernel that rounds its matrix products differently gives other float
digests: with OPENBLAS_CORETYPE=Haswell, 11 of the restorer and forward
digest tests fail, and with Sandybridge 25 (ROADMAP item 1).

The coupled-term restorer digests pin the seed-coupling terms (first and
second moment, feature), alone and all three, with and without the
consistency term and the prior, for one and three seeds, together with
`loss_c`, `loss_fm`, `loss_sm` (three seeds) and `loss_p` of the outputs.
They were taken before the restorer and the loss functions came to share
one implementation of each term. The restorer refuses the second-moment
term at one seed, where it is a constant with no gradient, so those
configurations are pinned as refusals.

The JFIF digests are conformance vectors for the entropy coder, taken from
the bit-at-a-time coder that the bit-string one replaced: the bytes
`write_jfif` emits over ragged sizes and qualities from 1 to 100, and the
grid `parse_jfif` reads from a hand-built stream with a restart marker
after every MCU (RST0 to RST7, then RST0 again).

The toy oracle digests pin the four oracle values that do not depend on
matrix products (the conditional-mean deviation, and the inconsistent
mass, marginal TV and largest posterior gap of the exact posterior
sampler) over the equivalence models of `tests/test_toy.py`, a fine-step
model and the two coarse-step shapes of the benchmark's `oracle-check`.
They were taken from the per-observation oracle loop that the blocked
checks replaced.

The numerics digest pins the lossless-settings study: every round trip of
its three paths over ragged natural images and a uniform-noise image, and
the three RMSEs. It was taken from the study's own color path, before the
study came to run the codec's.

The toy oracle, `write_jfif`, restart-grid and numerics digests do not
depend on the BLAS kernel (the study's color products are rounded to
integers); a test reruns them under OpenBLAS's Prescott kernel, which
needs only SSE3, so that one that came to depend on it fails on any x86-64
host.
"""

import hashlib
import platform
import warnings

import numpy as np
import pytest

from jpegkit.codec import CodecOptions, compress, decompress
from jpegkit.diffjpeg import forward
from jpegkit.errors import TooFewSamples
from jpegkit.image import FloatImage, to_float
from jpegkit.jfif import parse_jfif, write_jfif
from jpegkit.losses import LossWeights, SampleBatch, loss_c, loss_fm, loss_p, loss_sm
from jpegkit.numerics import STUDY_PATHS, lossless_roundtrip, run_numerics_study
from jpegkit.restorer import RestoreConfig, restore_with_history
from jpegkit.toy import (
    mmse_consistency_deviation,
    posterior_sampler,
    posterior_sampler_checks,
    random_model,
)
from tests.conftest import (
    coarse_step_model,
    fine_step_model,
    natural_image,
    restart_stream,
    run_pytest_under_kernel,
    uniform_image,
)
from tests.reference import op_for_image

RESTORE_DIGESTS = {
    (32, 1.0, 1): "954caf4a0ea593c3f3fa892100149f709e68c7e011738d39c46165bed74bdf17",
    (32, 1.0, 4): "6d7cc34e3cc997b1ccf125b44408ae8d1ca6bac75b732272b24de4739a894e94",
    (32, 100.0, 1): "40fff42658c8cda0ebee3f420f19afd9dec9d25ba3719c3ca0341c69b95859b2",
    (32, 100.0, 4): "0f7a1eeaf6e7755241ed33e10c056a88189743f9cf2941abff9dfff9d8eeb993",
    (128, 1.0, 1): "4e213c65cd31f8c5729934ecce57705bb199de323a9982430b865b49e4a7b5b8",
    (128, 1.0, 4): "1c78961c3147d10c9cc632c79a4ef1fe4ac199acfe6430fefde0683c73a2d961",
    (128, 100.0, 1): "4c18de2d5ad9fda3bb6ca174462f38e85705ff2db559f4a4b984ff65ff3c30bd",
    (128, 100.0, 4): "fa48f9d419689cf844e9c003b295aab2cb079851f42108263e4f452ce6794105",
}

COUPLED_TERMS = {
    "fm": dict(lambda_fm=500.0),
    "sm": dict(lambda_sm=500.0),
    "p": dict(lambda_p=300.0),
    "fm+sm+p": dict(lambda_fm=500.0, lambda_sm=500.0, lambda_p=300.0),
}

# (terms, n_seeds, with lambda_c and the prior); None: refused with TooFewSamples
COUPLED_DIGESTS = {
    ("fm", 1, False): "9317bb3dbfb3fc722550c6a4332318f56e8d703fc945f7c48a80dd2dd9c6f421",
    ("fm", 1, True): "58645df3fef5483d5d430091b8815f3573945b1f6717aa9aae682703c6cb9627",
    ("fm", 3, False): "10353c0e3aaa616ba4198d0a35f5b70275b840e9c443639355fe1bd6492968aa",
    ("fm", 3, True): "24e49b05274d05a70c1f288c150c910135d5e3c25baff567ee5761e9a51b748c",
    ("sm", 1, False): None,
    ("sm", 1, True): None,
    ("sm", 3, False): "6b3f1bf741104405518160da56c59e62048c917e1d6f80cccf7923a7cb941b13",
    ("sm", 3, True): "dc87ed5eb1c5c693e368c12e869c3801810d45142f3edf9a65067e7c55ffde22",
    ("p", 1, False): "3e88b2bfbd1ee1fb674da2d464c6c3136158c0e0977c17594c1ef271987678f1",
    ("p", 1, True): "148253c37cf744bcd977c0cbd3353f2da08c37dcb26c0e4abc273074cdf42564",
    ("p", 3, False): "361e33b2b9e76de7aaab5f9e73d7a223ea821661c66d961a59598ead80cf3c09",
    ("p", 3, True): "e243898468cfa6afe4b24a32b701efc9d7b67661441430b17d86b512cfbe82c3",
    ("fm+sm+p", 1, False): None,
    ("fm+sm+p", 1, True): None,
    ("fm+sm+p", 3, False): "f3579aa9e10f65d1a08e9cb117cc5c6942dbda9537a77e4ee424b61ebfbfe2c1",
    ("fm+sm+p", 3, True): "ca9928cee26915d670f5a3bf2dcb8a6b2869ab910ab3b9b232a2020ad384211c",
}

FORWARD_DIGESTS = {
    (16, 16, 1, "ycbcr"): "465917d0784f6d5ce4e111bb1735f1281e578fef0074b21eab539634ddefd0d6",
    (16, 16, 1, "rgb-passthrough"): "465917d0784f6d5ce4e111bb1735f1281e578fef0074b21eab539634ddefd0d6",
    (16, 16, 3, "ycbcr"): "7b6f025c3c211483347bcf1ba31f0030346122ba5c5b375d45a33e651010f813",
    (16, 16, 3, "rgb-passthrough"): "f7c99de2743ae7124760e6dc991dbee5315c1dbf00c935b061ed62a2cc9fc592",
    (17, 13, 1, "ycbcr"): "ad474dafb31a286b6aa246fa86e6e33478784592e7a1ae0d6caf142b31c5d3f4",
    (17, 13, 1, "rgb-passthrough"): "ad474dafb31a286b6aa246fa86e6e33478784592e7a1ae0d6caf142b31c5d3f4",
    (17, 13, 3, "ycbcr"): "ceab5cb149ed1bf6e6a49e20b66d3f24398ff1692ceb822cc7c3b4ae87b64858",
    (17, 13, 3, "rgb-passthrough"): "b2a472c365e1c2c5b278547c315a96f93264ea72ef755c2363427c06b0db2055",
    (9, 31, 1, "ycbcr"): "3eff25576a9f8625a6a7644c3953e27a49041d3401f9fcb7b1c18cc8bf47c530",
    (9, 31, 1, "rgb-passthrough"): "3eff25576a9f8625a6a7644c3953e27a49041d3401f9fcb7b1c18cc8bf47c530",
    (9, 31, 3, "ycbcr"): "7018a5a2b0f63460528d6c161cb1f56986cf0a82af726129461c85596b1a9256",
    (9, 31, 3, "rgb-passthrough"): "c53839adf82235070931a510bfc454b59749c4c40671a1a6c92a890e6f017e18",
}

WRITE_JFIF_DIGESTS = {
    (16, 16, 1): "5319fbb2705efe854dc1a8ab9b807973153d623a1f3d003f19a8376e9dc0dd1b",
    (16, 16, 5): "d82571c02abaee0c59d28d0d4225b5f1b9d1c621b22f3017a0d9b8db8c9161a1",
    (16, 16, 50): "ac5327f1f2c82a48b3b06dccb7bbf3ee111ae505a80819b695f7c269f6fd4bda",
    (16, 16, 95): "74c32d91af15ce04e7bac1a405dbad4abee1e5bfc9b6b0d280aa77f0ac0c9d1f",
    (16, 16, 100): "a9fb0d6764b0140c486f3b9b9f610e748243d5fd7002cdbe717859bc6a330c49",
    (17, 13, 1): "bb454f972ffdfd7a349479f24240f3a1b09c0db541c41c1ee0ec59378b182359",
    (17, 13, 5): "28d360e2555e0133db0f4b59a744af9aa7462887883b1d48a1b64bc3d0e8a251",
    (17, 13, 50): "7c3bb72e289803db882701668c4e1c98026c4abde35fea15549fb8a7af17ac8e",
    (17, 13, 95): "f0f5a7d2f7393666022fc0c53f1dce52a8896b828e268fd2edea061664269473",
    (17, 13, 100): "902d270ca2295bdc47273d634b4af5ca44e7f35e6d1e155737b4a817ae3d3422",
    (8, 25, 1): "6701c2eefe48336a08ba259c54aac84708f5074a5dde81709c0a5d60cb19537c",
    (8, 25, 5): "8597fbd59ba47180b40f64cacfcc5328649eef3575a1cca1527e606920034a1a",
    (8, 25, 50): "51f187cc0879595e1100efa2241a4d35b9a8d5c5fb60b4e5b2f96ca7d8153811",
    (8, 25, 95): "4faf80fdb7cf7da98c6fa1f7b574d5ff6cc0b0aadf954bfcd0e2a5ed9f22a5ac",
    (8, 25, 100): "6f8ef8f2f532b38c574aaf75d6091e834af7ef1283f9df818e4fc8ab441eb072",
    (9, 31, 1): "abe1c8458d4d77cb2649ba9ea37ce9c3b432fc57ac6ffaeae238da44319e85b1",
    (9, 31, 5): "2b71a2817c42d4302351ad712529719eb0a44faf42d2fa03a827fcaf4ce50fb7",
    (9, 31, 50): "6965484aa98b6ddad3a07f40fbc6aaebffea709e71141b112b5bba211e1f03d1",
    (9, 31, 95): "4ddd7bb72fbe4762ed9a51d5484e92e3efe9522e9a1e5ab9d8cb857f288e6be4",
    (9, 31, 100): "5154f6610dc1b5d6272aefa8fbcb0c46cca1a364d6a2d5ba956ea76f7f0c1095",
}

RESTART_GRID_DIGEST = "a9277ffbc0432d9ad5e60a291ceff947d56997abd10d751ac9b782982657cec5"

ORACLE_DIGESTS = {
    "equivalence": "5b98f14fef553db4914a3e5072719781fb6b08890b414fbf1e65cbc9c78fd5c3",
    "fine-7": "788e4cc0dcea018f26cd51c325672a99e0a080476a701ce3762c9d49f6280e13",
    "coarse-6x4": "8fa25bb2c3f37bd8ad20992ad11ba0c8252fb2fa33260290c4b7d2726a2aff83",
    "coarse-7x3": "04fc9b2bc543d1dab03f7b6757d7bf65e76a6b19037ec501d15d5b85d9c7ad7c",
}

NUMERICS_DIGEST = "688e4a98653d0caccc3d3414b783eb4bc7ed8250f50f6bed48d977d3d4cb1bc0"
NUMERICS_RMSES = [0.5775242976761853, 0.5776230432886426, 0.0]


def restore_digest(size, lam_c, n_seeds):
    y = decompress(compress(natural_image(np.random.default_rng(size), size, size), 10))
    cfg = RestoreConfig(
        qf=10,
        weights=LossWeights(lambda_c=lam_c, lambda_prior=120.0),
        steps=12,
        step_size=4.0,
        n_seeds=n_seeds,
        seed=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = restore_with_history(y, cfg)
    h = hashlib.sha256()
    for img in run.images:
        h.update(img.data.tobytes())
    h.update(run.loss_history.tobytes())
    return h.hexdigest()


def coupled_digest(terms, n_seeds, with_base):
    x = natural_image(np.random.default_rng(11), 32, 32)
    y = decompress(compress(x, 10))
    xbar = to_float(y)
    base = dict(lambda_c=1.0, lambda_prior=120.0) if with_base else {}
    cfg = RestoreConfig(
        qf=10,
        weights=LossWeights(**COUPLED_TERMS[terms], **base),
        steps=10,
        step_size=2.0,
        n_seeds=n_seeds,
        seed=5,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = restore_with_history(y, cfg, x=x, xbar=xbar)
    batch = SampleBatch(y, run.images, x=x, xbar=xbar)
    losses = [loss_c(batch, 10), loss_fm(batch), loss_p(batch)]
    if n_seeds > 1:
        losses.append(loss_sm(batch))
    h = hashlib.sha256()
    for img in run.images:
        h.update(img.data.tobytes())
    h.update(run.loss_history.tobytes())
    h.update(np.array(losses).tobytes())
    return h.hexdigest()


def forward_digest(height, width, channels, colorspace):
    rng = np.random.default_rng(height * 100 + width)
    x = to_float(natural_image(rng, height, width, channels)).data
    x = FloatImage(x + rng.normal(0.0, 3.0, x.shape))
    op = op_for_image(x, 50, CodecOptions(colorspace=colorspace))
    z, _ = forward(op, x)
    return hashlib.sha256(z.data.tobytes()).hexdigest()


ORACLE_MODELS = {
    # the same models as EQUIVALENCE_MODELS in tests/test_toy.py
    "equivalence": lambda: [random_model(np.random.default_rng(3000 + i)) for i in range(24)],
    "fine-7": lambda: [fine_step_model(7)],
    "coarse-6x4": lambda: [coarse_step_model(6, 4, (1.8, 2.16, 2.52, 2.88, 3.24, 3.6), 41)],
    "coarse-7x3": lambda: [coarse_step_model(7, 3, (1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4), 42)],
}


def oracle_digest(case):
    h = hashlib.sha256()
    for m in ORACLE_MODELS[case]():
        rep = posterior_sampler_checks(m, posterior_sampler(m))
        values = [mmse_consistency_deviation(m), rep.inconsistent_mass, rep.marginal_tv, rep.max_posterior_gap]
        h.update(np.array(values).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(RESTORE_DIGESTS))
def test_restore_with_history_digest(case):
    assert restore_digest(*case) == RESTORE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(COUPLED_DIGESTS))
def test_coupled_restore_digest(case):
    if COUPLED_DIGESTS[case] is None:
        with pytest.raises(TooFewSamples):
            coupled_digest(*case)
    else:
        assert coupled_digest(*case) == COUPLED_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(FORWARD_DIGESTS))
def test_forward_digest(case):
    assert forward_digest(*case) == FORWARD_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(WRITE_JFIF_DIGESTS))
def test_write_jfif_digest(case):
    height, width, qf = case
    x = natural_image(np.random.default_rng(height * 100 + width), height, width)
    data = write_jfif(compress(x, qf))
    assert hashlib.sha256(data).hexdigest() == WRITE_JFIF_DIGESTS[case]


def test_restart_stream_grid_digest():
    # 11 MCUs in one row at DRI=1, so the markers wrap from RST7 to RST0
    g = compress(natural_image(np.random.default_rng(7), 8, 88), 50)
    g2, structure = parse_jfif(restart_stream(g))
    assert structure.restart_interval == 1
    assert g2 == g
    h = hashlib.sha256()
    for ch in g2.channels:
        h.update(ch.tobytes())
    assert h.hexdigest() == RESTART_GRID_DIGEST


@pytest.mark.parametrize("case", sorted(ORACLE_DIGESTS))
def test_toy_oracle_digest(case):
    assert oracle_digest(case) == ORACLE_DIGESTS[case]


def test_numerics_study_digest():
    rng = np.random.default_rng(11)
    images = [natural_image(rng, h, w) for h, w in ((16, 16), (17, 13), (9, 31), (64, 48))]
    images.append(uniform_image(rng, 24, 24))
    rmses = [row.rmse for row in run_numerics_study(images)]
    assert rmses == NUMERICS_RMSES
    h = hashlib.sha256()
    for path in STUDY_PATHS:
        for img in images:
            h.update(lossless_roundtrip(img, path).data.tobytes())
    h.update(np.array(rmses).tobytes())
    assert h.hexdigest() == NUMERICS_DIGEST


KERNEL_FREE_DIGESTS = (
    "toy_oracle_digest or write_jfif_digest or restart_stream_grid_digest or numerics_study_digest"
)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="Prescott is an x86-64 OpenBLAS kernel"
)
def test_kernel_free_digests_hold_under_the_prescott_kernel():
    run = run_pytest_under_kernel("Prescott", "-k", KERNEL_FREE_DIGESTS, __file__, timeout=300)
    expected = len(ORACLE_DIGESTS) + len(WRITE_JFIF_DIGESTS) + 2
    assert run.returncode == 0 and f"{expected} passed" in run.stdout, run.stdout[-3000:]
