import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "family_survey.py"


def _load_survey():
    spec = importlib.util.spec_from_file_location("family_survey", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_survey_fp_t_in_process(capsys):
    _load_survey().survey("fp_t", 2, 2, 2)
    out = capsys.readouterr().out
    assert "(e) refuted" in out
    assert "imperfection witness: t^1/2" in out
    assert "member 1:" in out and "member 2:" in out
    assert "member 3:" not in out


@pytest.mark.parametrize("argv", [["--budget", "0"], ["--n", "0"]])
def test_count_below_one_is_refused_by_the_parser(argv, capsys):
    # at budget 0 the listing holds no imperfection witness, so the survey
    # would report fp_t without one; the parser refuses the count first
    with pytest.raises(SystemExit) as exc:
        _load_survey().main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1, got 0" in captured.err
    assert captured.out == ""
