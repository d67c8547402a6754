import importlib.util
from pathlib import Path

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
