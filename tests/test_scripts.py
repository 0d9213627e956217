"""Smoke test of the scripts: each runs at a tiny size and writes its outputs."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_convergence_study(tmp_path):
    proc = _run("convergence_study.py", "--n-max", "3", cwd=tmp_path)
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,logD,gamma,cap" and len(lines) == 4
    assert "sup distance" in proc.stderr


def test_render_figures(tmp_path):
    out = tmp_path / "figures"
    proc = _run("render_figures.py", "--size", "90x60", "--threads", "1", "--out-dir", str(out),
                cwd=tmp_path)
    for name in ("segment_preimage_n8", "disk_preimage_n5", "disk_preimage_n100"):
        png = out / f"{name}.png"
        assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n", name
        assert (out / f"{name}.pgm").stat().st_size > 90 * 60
    assert proc.stdout.count("in-set pixels") == 3
