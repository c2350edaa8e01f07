"""Pinned sha256 digests of restorer and diffjpeg outputs.

The digests were taken from the per-seed, per-image implementation that
the batched one replaced; any change to the arithmetic, its order or the
random draws shows up here as a different digest. They were taken with
numpy 2.4 on OpenBLAS 0.3.31 (Haswell kernels); a BLAS that rounds its
small matrix products differently gives other digests.
"""

import hashlib
import warnings

import numpy as np
import pytest

from jpegkit.codec import CodecOptions, jpeg_q
from jpegkit.diffjpeg import DiffJpegOp, forward
from jpegkit.image import FloatImage, to_float
from jpegkit.losses import LossWeights
from jpegkit.restorer import RestoreConfig, restore_with_history
from tests.conftest import natural_image

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


def restore_digest(size, lam_c, n_seeds):
    y = jpeg_q(natural_image(np.random.default_rng(size), size, size), 10)
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


def forward_digest(height, width, channels, colorspace):
    rng = np.random.default_rng(height * 100 + width)
    x = to_float(natural_image(rng, height, width, channels)).data
    x = FloatImage(x + rng.normal(0.0, 3.0, x.shape))
    op = DiffJpegOp.for_image(x, 50, CodecOptions(colorspace=colorspace))
    z, _ = forward(op, x)
    return hashlib.sha256(z.data.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(RESTORE_DIGESTS))
def test_restore_with_history_digest(case):
    assert restore_digest(*case) == RESTORE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(FORWARD_DIGESTS))
def test_forward_digest(case):
    assert forward_digest(*case) == FORWARD_DIGESTS[case]
