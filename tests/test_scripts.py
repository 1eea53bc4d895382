import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_render_triangle_continuations(tmp_path):
    render = _load("render_examples")
    render.render_triangle_continuations(tmp_path, fast=True)
    pgms = sorted(tmp_path.glob("*.pgm"))
    assert [p.name for p in pgms] == [
        f"triangle_continuation_sheet{k}.pgm" for k in (1, 2, 3, 4)
    ]
    for p in pgms:
        assert p.read_bytes().startswith(b"P5\n512 512\n255\n")
        assert p.stat().st_size > len(b"P5\n512 512\n255\n")
