import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mixed_demo.py"


def _load_demo():
    spec = importlib.util.spec_from_file_location("mixed_demo", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_mixed_demo_in_process(capsys):
    _load_demo().main(["--n", "1", "--budget", "5"])
    lines = capsys.readouterr().out.splitlines()
    expected = [
        "  p = 2: zeta = 1 + p^1 + p^2 + p^3 + p^4 + p^5 + p^6 + p^7 [prec 8/1]",
        "  v((1 + p^(1/2))^2 - 1) = 1/1 = 2 * 1/2   (precondition holds)",
        "  v(3^2 - 1^2) = 3/1 != 2 v(3 - 1) = 2/1   (precondition fails)",
        "  v(5^2 - 1^2) = 3/1 != 2 v(5 - 1) = 4/1   (precondition fails)",
        "  v(7^2 - 3^2) = 3/1 != 2 v(7 - 3) = 4/1   (precondition fails)",
        "  member 1: v(td) = -1/32, upper 5/32-, class super_dependent",
    ]
    for line in expected:
        assert line in lines
    assert not any(line.startswith("  member 2:") for line in lines)


@pytest.mark.parametrize("argv", [["--n", "0"], ["--budget", "0"]])
def test_count_below_one_is_refused_by_the_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _load_demo().main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1, got 0" in captured.err
    assert captured.out == ""
