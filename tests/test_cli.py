import numpy as np
import pytest

from jpegkit.cli import main
from jpegkit.codec import compress, compress_with_table, decompress
from jpegkit.jfif import parse_jfif, write_jfif
from jpegkit.pnm import read_pnm, write_pnm
from tests.conftest import fine_step_model, images_equal, natural_image, table_from_text


@pytest.fixture
def workdir(tmp_path, rng):
    x = natural_image(rng)
    (tmp_path / "img.ppm").write_bytes(write_pnm(x))
    return tmp_path, x


def test_encode_decode_matches_library(workdir):
    d, x = workdir
    assert main(["encode", str(d / "img.ppm"), "-q", "30", "-o", str(d / "img.jpg")]) == 0
    assert main(["decode", str(d / "img.jpg"), "-o", str(d / "out.ppm")]) == 0
    grid, _ = parse_jfif((d / "img.jpg").read_bytes())
    assert grid == compress(x, 30)
    assert images_equal(read_pnm((d / "out.ppm").read_bytes()), decompress(grid))


def test_decode_dump_tables(workdir, capsys):
    from jpegkit.quant import table_for_qf
    import numpy as np

    d, _ = workdir
    main(["encode", str(d / "img.ppm"), "-q", "40", "-o", str(d / "img.jpg")])
    assert main(["decode", str(d / "img.jpg"), "-o", str(d / "o.ppm"), "--dump-tables"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert np.array_equal(table_from_text(lines[0]), table_for_qf(40).luma)
    assert np.array_equal(table_from_text(lines[1]), table_for_qf(40).chroma)


def test_encode_accepts_gray(tmp_path, rng):
    g = natural_image(rng, channels=1)
    (tmp_path / "g.pgm").write_bytes(write_pnm(g))
    assert main(["encode", str(tmp_path / "g.pgm"), "-q", "50", "-o", str(tmp_path / "g.jpg")]) == 0
    grid, _ = parse_jfif((tmp_path / "g.jpg").read_bytes())
    assert grid.n_channels == 3


def test_roundtrip_prints_csv(workdir, capsys):
    d, _ = workdir
    assert main(["roundtrip", str(d / "img.ppm"), "-q", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,qf,consistency_rmse,psnr,perceptual_proxy,n"
    fields = out[1].split(",")
    assert fields[0] == "img.ppm" and fields[1] == "10"
    assert float(fields[2]) <= 1.0


def test_roundtrip_flags(workdir, capsys):
    d, _ = workdir
    assert main(["roundtrip", str(d / "img.ppm"), "-q", "100", "--passthrough"]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(fields[3]) > 45.0  # near-lossless at maximum quality


def test_project_command(workdir, rng):
    d, x = workdir
    other = natural_image(rng)
    (d / "xhat.ppm").write_bytes(write_pnm(other))
    main(["encode", str(d / "img.ppm"), "-q", "10", "-o", str(d / "img.jpg")])
    assert main(["project", str(d / "xhat.ppm"), str(d / "img.jpg"), "-o", str(d / "proj.ppm")]) == 0
    grid, _ = parse_jfif((d / "img.jpg").read_bytes())
    projected = read_pnm((d / "proj.ppm").read_bytes())
    assert compress_with_table(projected, grid.table) == grid


def test_metrics_command(workdir, capsys):
    d, _ = workdir
    main(["encode", str(d / "img.ppm"), "-q", "25", "-o", str(d / "img.jpg")])
    assert main(["metrics", str(d / "img.ppm"), str(d / "img.ppm"), str(d / "img.jpg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,qf,consistency_rmse,psnr,perceptual_proxy,n"
    assert out[1].split(",")[1] == "25"


def test_restore_command(workdir, capsys):
    d, _ = workdir
    main(["encode", str(d / "img.ppm"), "-q", "5", "-o", str(d / "img.jpg")])
    code = main(
        [
            "restore", str(d / "img.jpg"),
            "--lambda-c", "10", "--lambda-prior", "20",
            "--steps", "10", "--step-size", "2.0",
            "--seeds", "2", "--seed", "1",
            "--project",
            "-o", str(d / "restored"),
        ]
    )
    assert code == 0
    files = sorted((d / "restored").glob("restored_*.ppm"))
    assert len(files) == 2
    grid, _ = parse_jfif((d / "img.jpg").read_bytes())
    for f in files:
        assert compress_with_table(read_pnm(f.read_bytes()), grid.table) == grid


def test_sweep_command(tmp_path, rng, capsys):
    for i in range(2):
        x = natural_image(rng)
        (tmp_path / f"im{i}.ppm").write_bytes(write_pnm(x))
        (tmp_path / f"im{i}.jpg").write_bytes(write_jfif(compress(x, 5)))
    code = main(
        [
            "sweep", str(tmp_path),
            "--lambdas", "0,10",
            "--steps", "10", "--step-size", "2.0", "--lambda-prior", "20",
            "-o", str(tmp_path / "sweep.csv"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda_c,consistency_rmse,perceptual_proxy,psnr"
    assert len(lines) == 3


def test_numerics_study_command(tmp_path, rng, capsys):
    for i in range(3):
        (tmp_path / f"n{i}.ppm").write_bytes(write_pnm(natural_image(rng)))
    assert main(["numerics-study", str(tmp_path), "-o", str(tmp_path / "study.csv")]) == 0
    lines = (tmp_path / "study.csv").read_text().strip().splitlines()
    assert lines[0] == "path,rmse,n_images"
    assert lines[3].split(",")[1] == "0.000000"


def test_theorem_check(capsys):
    assert main(["theorem-check", "--models", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ALL BOUNDS HOLD" in out
    assert "bound 0.5" in out


def test_theorem_check_fixture(tmp_path, capsys):
    from jpegkit.toy import random_model, save_model

    (tmp_path / "model.txt").write_text(save_model(random_model(np.random.default_rng(5))))
    assert main(["theorem-check", "--models", "3", "--fixture", str(tmp_path / "model.txt")]) == 0


def test_theorem_check_fine_step_fixture(tmp_path, capsys):
    from jpegkit.toy import observations, save_model

    m = fine_step_model(11)
    assert m.n_states == 1024 and len(observations(m)[0]) > 900
    (tmp_path / "fine.txt").write_text(save_model(m))
    assert main(["theorem-check", "--models", "2", "--fixture", str(tmp_path / "fine.txt")]) == 0
    assert "ALL BOUNDS HOLD" in capsys.readouterr().out


def test_theorem_check_runs_sampler_checks_on_every_model(tmp_path, monkeypatch, capsys):
    import jpegkit.cli as cli
    from jpegkit.toy import save_model

    checked = []
    real = cli.posterior_sampler_checks
    monkeypatch.setattr(
        cli, "posterior_sampler_checks", lambda m, s: checked.append(m) or real(m, s)
    )
    fixture = fine_step_model(11)
    (tmp_path / "fine.txt").write_text(save_model(fixture))
    assert main(["theorem-check", "--models", "2", "--fixture", str(tmp_path / "fine.txt")]) == 0
    assert len(checked) == 3
    assert checked[-1].n_states == fixture.n_states


def _usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err.strip().splitlines()


def test_theorem_check_zero_models_without_fixture_is_usage_error(capsys):
    code, out, err = _usage_error(capsys, ["theorem-check", "--models", "0"])
    assert code == 2
    assert "ALL BOUNDS HOLD" not in out
    assert len(err) == 1 and "--models" in err[0]


def test_theorem_check_negative_models_is_usage_error(tmp_path, capsys):
    from jpegkit.toy import random_model, save_model

    (tmp_path / "model.txt").write_text(save_model(random_model(np.random.default_rng(5))))
    for extra in ([], ["--fixture", str(tmp_path / "model.txt")]):
        code, out, err = _usage_error(capsys, ["theorem-check", "--models", "-2", *extra])
        assert code == 2
        assert "ALL BOUNDS HOLD" not in out
        assert len(err) == 1 and "--models" in err[0]
    # a fixture alone is a model to check
    assert main(["theorem-check", "--models", "0", "--fixture", str(tmp_path / "model.txt")]) == 0


def test_restore_nonpositive_descent_flags_are_usage_errors(workdir, capsys):
    d, _ = workdir
    main(["encode", str(d / "img.ppm"), "-q", "5", "-o", str(d / "img.jpg")])
    for flag, value in (("--seeds", "0"), ("--steps", "0"), ("--step-size", "0"), ("--seeds", "-1")):
        code, _, err = _usage_error(
            capsys, ["restore", str(d / "img.jpg"), flag, value, "-o", str(d / "restored")]
        )
        assert code == 2
        assert len(err) == 1 and flag in err[0]
    assert not (d / "restored").exists()
    code, _, err = _usage_error(capsys, ["sweep", str(d), "--lambdas", "1,2", "--steps", "0", "-o", str(d / "s.csv")])
    assert code == 2 and len(err) == 1 and "--steps" in err[0]


def test_usage_error_exits_2():
    assert main(["encode"]) == 2
    assert main([]) == 2


def _run_jpegkit(*args):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import jpegkit

    # the child imports the same jpegkit as this process, installed or not
    src = str(Path(jpegkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "jpegkit", *map(str, args)], capture_output=True, text=True, env=env
    )


def test_subprocess_invocation(workdir):
    d, x = workdir
    proc = _run_jpegkit("encode", d / "img.ppm", "-q", "30", "-o", d / "sub.jpg")
    assert proc.returncode == 0, proc.stderr
    grid, _ = parse_jfif((d / "sub.jpg").read_bytes())
    assert grid == compress(x, 30)
    proc = _run_jpegkit("decode", d / "img.ppm", "-o", d / "x.ppm")
    assert proc.returncode == 1
    assert "BadMarker" in proc.stderr


def test_metric_commands_write_nothing_to_stderr(workdir):
    # one-image sets have singular covariances; the proxy must not warn
    d, _ = workdir
    proc = _run_jpegkit("encode", d / "img.ppm", "-q", "25", "-o", d / "img.jpg")
    assert proc.returncode == 0, proc.stderr
    for args in (
        ("roundtrip", d / "img.ppm", "-q", "10"),
        ("metrics", d / "img.ppm", d / "img.ppm", d / "img.jpg"),
    ):
        proc = _run_jpegkit(*args)
        assert proc.returncode == 0 and proc.stdout.startswith("name,qf,")
        assert proc.stderr == ""


def test_domain_error_exits_1(workdir, capsys):
    d, _ = workdir
    code = main(["decode", str(d / "img.ppm"), "-o", str(d / "x.ppm")])
    assert code == 1
    assert "BadMarker" in capsys.readouterr().err
