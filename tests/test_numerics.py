import numpy as np
import pytest

from jpegkit.errors import EmptySet, WrongChannelCount
from jpegkit.image import PixelImage
from jpegkit.numerics import STUDY_PATHS, lossless_roundtrip, run_numerics_study, study_to_csv
from tests.conftest import natural_image


def test_passthrough_row_exactly_zero(natural_set):
    rows = {r.path: r for r in run_numerics_study(natural_set)}
    assert rows["rgb-passthrough"].rmse == 0.0


def test_color_rows_in_unit_interval(natural_set):
    rows = {r.path: r for r in run_numerics_study(natural_set)}
    assert 0.0 < rows["ycbcr-float"].rmse <= 1.0
    assert 0.0 < rows["ycbcr-rounded"].rmse <= 1.0


def test_path_ordering(natural_set):
    rows = {r.path: r for r in run_numerics_study(natural_set)}
    assert rows["rgb-passthrough"].rmse < rows["ycbcr-float"].rmse
    assert rows["ycbcr-float"].rmse <= rows["ycbcr-rounded"].rmse


def test_uniform_gray_all_rows_zero():
    img = PixelImage(np.full((16, 16, 3), 128, dtype=np.uint8))
    for r in run_numerics_study([img]):
        assert r.rmse == 0.0


def test_every_path_is_a_fixed_point_twice(rng):
    # whatever error the path introduces, applying it twice adds nothing new
    img = natural_image(rng)
    for path in STUDY_PATHS:
        once = lossless_roundtrip(img, path)
        twice = lossless_roundtrip(once, path)
        assert np.array_equal(once.data, twice.data)


def test_csv_format(natural_set):
    text = study_to_csv(run_numerics_study(natural_set[:2]))
    assert "\r" not in text  # one line ending, as the other CLI reports
    lines = text.strip().splitlines()
    assert lines[0] == "path,rmse,n_images"
    assert len(lines) == 4
    assert lines[3].startswith("rgb-passthrough,0.000000,2")


def test_empty_set_rejected():
    with pytest.raises(EmptySet):
        run_numerics_study([])


def test_gray_image_rejected_on_color_paths(rng):
    img = PixelImage(rng.integers(0, 256, (8, 8, 1), dtype=np.uint8))
    with pytest.raises(WrongChannelCount):
        lossless_roundtrip(img, "ycbcr-float")
    assert lossless_roundtrip(img, "rgb-passthrough") is not None
