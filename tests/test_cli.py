import csv
import io

import numpy as np
import pytest

from jpegkit import cli, restorer
from jpegkit.cli import main
from jpegkit.codec import compress, compress_with_table, decompress
from jpegkit.image import PixelImage
from jpegkit.jfif import parse_jfif, write_jfif
from jpegkit.losses import LossWeights
from jpegkit.pnm import read_pnm, write_pnm
from jpegkit.quant import QuantTable, detect_qf, table_for_qf
from jpegkit.restorer import RestoreConfig, restore_with_history
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


def test_metrics_and_roundtrip_quote_a_name_with_a_comma(workdir, capsys):
    d, x = workdir
    (d / "a,b.ppm").write_bytes(write_pnm(x))
    main(["encode", str(d / "img.ppm"), "-q", "25", "-o", str(d / "img.jpg")])
    for argv in (
        ["roundtrip", str(d / "a,b.ppm"), "-q", "25"],
        ["metrics", str(d / "a,b.ppm"), str(d / "img.ppm"), str(d / "img.jpg")],
    ):
        capsys.readouterr()
        assert main(argv) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(header) == len(row) == 6
        assert row[0] == "a,b.ppm" and row[1] == "25"


def test_restore_on_a_custom_table_gives_the_library_images(workdir, capsys):
    # the config takes the file's table alone: no quality factor stands in for it
    d, x = workdir
    standard = table_for_qf(30)
    luma = standard.luma.copy()
    luma[0, 1] += 1
    table = QuantTable(luma, standard.chroma)
    assert detect_qf(table.luma, table.chroma) == "custom"
    grid = compress_with_table(x, table)
    (d / "custom.jpg").write_bytes(write_jfif(grid))
    argv = ["restore", str(d / "custom.jpg"), "--steps", "5", "--step-size", "2.0", "--seeds", "2", "--seed", "1"]
    assert main([*argv, "-o", str(d / "restored")]) == 0
    cfg = RestoreConfig(
        table=table, weights=LossWeights(lambda_c=10.0, lambda_prior=20.0), steps=5, step_size=2.0, n_seeds=2, seed=1
    )
    want = restore_with_history(decompress(grid), cfg).images
    files = sorted((d / "restored").glob("restored_*.ppm"))
    assert len(files) == 2
    assert all(images_equal(read_pnm(f.read_bytes()), w) for f, w in zip(files, want))
    assert capsys.readouterr().out.startswith("seed 0: consistency_rmse=")


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


def test_encode_past_16_bit_frame_is_a_domain_error(tmp_path, capsys):
    (tmp_path / "wide.ppm").write_bytes(write_pnm(PixelImage(np.zeros((1, 65536, 3), np.uint8))))
    code, _, err = _usage_error(capsys, ["encode", str(tmp_path / "wide.ppm"), "-q", "50", "-o", str(tmp_path / "w.jpg")])
    assert code == 1
    assert len(err) == 1 and err[0].startswith("PassthroughNotRepresentable:")
    assert not (tmp_path / "w.jpg").exists()


def test_encode_overlong_pnm_field_is_a_domain_error(tmp_path, capsys):
    (tmp_path / "long.ppm").write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n")
    code, _, err = _usage_error(capsys, ["encode", str(tmp_path / "long.ppm"), "-q", "50", "-o", str(tmp_path / "l.jpg")])
    assert code == 1
    assert len(err) == 1 and err[0].startswith("TruncatedPayload:")
    assert not (tmp_path / "l.jpg").exists()


def test_roundtrip_passthrough_with_round_chroma_is_usage_error(tmp_path, capsys):
    # refused before the input is read: the file does not exist
    argv = ["roundtrip", str(tmp_path / "missing.ppm"), "-q", "50", "--passthrough", "--round-chroma"]
    code, out, err = _usage_error(capsys, argv)
    assert code == 2 and out == ""
    assert len(err) == 1 and "--passthrough" in err[0] and "--round-chroma" in err[0]


def test_quality_out_of_range_is_usage_error(tmp_path, capsys):
    # refused before the input is read: the file does not exist
    for command in ("encode", "roundtrip"):
        for quality in ("0", "101"):
            argv = [command, str(tmp_path / "missing.ppm"), "-q", quality]
            if command == "encode":
                argv += ["-o", str(tmp_path / "out.jpg")]
            code, out, err = _usage_error(capsys, argv)
            assert code == 2 and out == "", (command, quality)
            assert len(err) == 1 and "--quality" in err[0], err
    assert not (tmp_path / "out.jpg").exists()


def test_roundtrip_round_chroma_on_gray_is_a_domain_error(tmp_path, rng, capsys):
    # a gray input has no color-converted planes for --round-chroma to round
    (tmp_path / "g.pgm").write_bytes(write_pnm(natural_image(rng, channels=1)))
    code, out, err = _usage_error(capsys, ["roundtrip", str(tmp_path / "g.pgm"), "-q", "50", "--round-chroma"])
    assert code == 1 and out == ""
    assert len(err) == 1 and err[0].startswith("WrongChannelCount:")


def test_sweep_input_errors_write_no_csv(tmp_path, rng, capsys):
    argv = ["sweep", str(tmp_path), "--lambdas", "0,10", "--steps", "1", "-o", str(tmp_path / "s.csv")]
    x = natural_image(rng)
    (tmp_path / "a.ppm").write_bytes(write_pnm(x))
    code, _, err = _usage_error(capsys, argv)
    assert code == 1 and len(err) == 1 and "no stem.jpg/stem.ppm pairs" in err[0]
    (tmp_path / "a.jpg").write_bytes(write_jfif(compress(x, 5)))
    (tmp_path / "b.ppm").write_bytes(write_pnm(x))
    (tmp_path / "b.jpg").write_bytes(write_jfif(compress(x, 50)))
    code, _, err = _usage_error(capsys, argv)
    assert code == 1 and len(err) == 1 and "share one quantization table" in err[0]
    assert not (tmp_path / "s.csv").exists()


def test_sweep_missing_output_directory_is_refused_before_the_sweep(tmp_path, rng, capsys, monkeypatch):
    for i in range(2):
        x = natural_image(rng, 16, 16)
        (tmp_path / f"p{i}.ppm").write_bytes(write_pnm(x))
        (tmp_path / f"p{i}.jpg").write_bytes(write_jfif(compress(x, 50)))
    calls = []
    monkeypatch.setattr(restorer, "restore_with_history", lambda *a, **k: calls.append(1))
    argv = ["sweep", str(tmp_path), "--lambdas", "0,10,20", "--steps", "1", "-o", str(tmp_path / "nodir" / "s.csv")]
    code, out, err = _usage_error(capsys, argv)
    assert code == 1 and out == "" and calls == []
    assert len(err) == 1 and err[0].startswith("FileNotFoundError:")
    assert not (tmp_path / "nodir").exists()


def test_unusable_outputs_are_refused_before_any_restore(tmp_path, rng, capsys, monkeypatch):
    # an output the command could only fail to write after the work is
    # refused with the error that write would raise, and nothing is made
    for i in range(2):
        x = natural_image(rng, 16, 16)
        (tmp_path / f"p{i}.ppm").write_bytes(write_pnm(x))
        (tmp_path / f"p{i}.jpg").write_bytes(write_jfif(compress(x, 50)))
    calls = []
    monkeypatch.setattr(restorer, "restore_with_history", lambda *a, **k: calls.append(1))
    monkeypatch.setattr(cli, "restore_with_history", lambda *a, **k: calls.append(1))
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_bytes(b"kept")
    before = sorted(tmp_path.rglob("*"))
    cases = (
        (["sweep", str(tmp_path), "--lambdas", "0,10", "--steps", "2"], "adir", "IsADirectoryError: [Errno 21] Is a directory"),
        (["restore", str(tmp_path / "p0.jpg"), "--steps", "3"], "afile", "FileExistsError: [Errno 17] File exists"),
    )
    for argv, output, error in cases:
        code, out, err = _usage_error(capsys, argv + ["-o", str(tmp_path / output)])
        assert code == 1 and out == "" and calls == []
        assert err == [f"{error}: {str(tmp_path / output)!r}"]
    assert sorted(tmp_path.rglob("*")) == before and (tmp_path / "afile").read_bytes() == b"kept"


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


@pytest.mark.parametrize(
    "text",
    [
        "1 2\nnan\n0.5 0.5\n",  # NaN step
        "2 2\n1.0 1.0\nnan 0.5 0.25 0.25\n",  # NaN prior entry
        "garbage",
        "",
        "\xff\xfe\x00",
    ],
)
def test_theorem_check_bad_fixture_is_domain_error(tmp_path, capsys, text):
    (tmp_path / "bad.txt").write_bytes(text.encode("latin-1"))
    assert main(["theorem-check", "--models", "1", "--fixture", str(tmp_path / "bad.txt")]) == 1
    captured = capsys.readouterr()
    assert "ALL BOUNDS HOLD" not in captured.out
    assert captured.err.startswith("MalformedModel: ")


def test_theorem_check_tiny_step_fixture_is_one_line_domain_error(tmp_path, capsys):
    # a 1e-300 step once overflowed int64 in the degradation and printed
    # BOUND VIOLATED with a deviation of ~6e293
    prior = " ".join(["0.125"] * 8 + ["0.0"])
    (tmp_path / "tiny.txt").write_text(f"2 3\n1e-300 1.0\n{prior}\n")
    assert main(["theorem-check", "--models", "1", "--fixture", str(tmp_path / "tiny.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "MalformedModel: bad model fixture: steps too small: a coefficient over its step could reach 2**53"
    ]


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


def test_bad_descent_flag_values_are_usage_errors(tmp_path, capsys):
    # each is refused before any file is read: the input does not exist
    missing = str(tmp_path / "missing.jpg")
    cases = [
        ("restore", "--noise-std", "-1"),
        ("restore", "--noise-std", "nan"),
        ("restore", "--lambda-c", "-1"),
        ("restore", "--lambda-prior", "-1"),
        ("restore", "--lambda-c", "inf"),
        ("restore", "--seed", "-1"),
        ("restore", "--step-size", "inf"),
        ("sweep", "--noise-std", "-1"),
        ("sweep", "--lambda-prior", "nan"),
        ("sweep", "--lambdas", "1,abc"),
        ("sweep", "--lambdas", "1"),
        ("sweep", "--lambdas", "1,-2"),
        ("sweep", "--lambdas", ""),
    ]
    for command, flag, value in cases:
        argv = [command, missing if command == "restore" else str(tmp_path), f"{flag}={value}"]
        if flag != "--lambdas":
            argv += ["--lambdas", "1,2"] if command == "sweep" else []
        code, _, err = _usage_error(capsys, [*argv, "-o", str(tmp_path / "out")])
        assert code == 2, (command, flag, value)
        assert len(err) == 1 and flag in err[0], err
    assert not (tmp_path / "out").exists()


def test_theorem_check_negative_seed_is_usage_error(capsys):
    code, _, err = _usage_error(capsys, ["theorem-check", "--models", "1", "--seed", "-1"])
    assert code == 2 and len(err) == 1 and "--seed" in err[0]


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


def test_file_errors_exit_1_with_one_line(workdir, capsys):
    # a missing or unreadable path is reported like a domain error: exit 1
    # and one stderr line naming the error class, with no traceback
    d, _ = workdir
    main(["encode", str(d / "img.ppm"), "-q", "30", "-o", str(d / "img.jpg")])
    capsys.readouterr()
    missing = d / "missing.jpg"
    cases = (
        (["decode", missing, "-o", d / "out.ppm"], "FileNotFoundError"),
        (["restore", missing, "--steps", "1", "-o", d / "restored"], "FileNotFoundError"),
        (["theorem-check", "--models", "1", "--fixture", d / "missing.txt"], "FileNotFoundError"),
        (["decode", d / "img.jpg", "-o", d / "no_such_dir" / "out.ppm"], "FileNotFoundError"),
        (["decode", d, "-o", d / "out.ppm"], "IsADirectoryError"),
    )
    for argv, name in cases:
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{name}: ") and err.count("\n") == 1, err
    proc = _run_jpegkit("restore", missing, "-o", d / "restored")
    assert proc.returncode == 1
    assert proc.stderr.startswith("FileNotFoundError: ") and proc.stderr.count("\n") == 1, proc.stderr
