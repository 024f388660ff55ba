"""Tests for the ``python -m repro report`` trace renderer."""

import json

import pytest

from repro.obs.report import build_report, render_report, report_main
from repro.obs.tracer import Tracer
from repro.util.timing import PIPELINE_MODULES


def _trace() -> Tracer:
    tr = Tracer(meta={"engine": "GpuEngine", "profile": "Tesla K40"})
    for step in range(2):
        base = step * 1.0
        tr.add("contact_detection", step=step, start=base, wall_s=0.1,
               device_s=0.01)
        tr.add("equation_solving", step=step, start=base + 0.1, wall_s=0.4,
               device_s=0.1)
        tr.add("step", step=step, start=base, wall_s=0.5,
               cg_iterations=20, open_close_iterations=2, n_contacts=5 + step)
    return tr


class TestBuildReport:
    def test_modules_and_totals(self):
        report = build_report(_trace())
        cd = report["modules"]["contact_detection"]
        assert cd["spans"] == 2
        assert cd["wall_s"] == pytest.approx(0.2)
        assert cd["wall_modelled_ratio"] == pytest.approx(10.0)
        assert report["total"]["wall_s"] == pytest.approx(1.0)
        assert report["total"]["wall_modelled_ratio"] == pytest.approx(1.0 / 0.22)

    def test_step_aggregates(self):
        report = build_report(_trace())
        assert report["steps"] == 2
        assert report["cg_iterations"] == 40
        assert report["open_close_iterations"] == 4
        assert report["max_contacts"] == 6

    def test_module_order_follows_pipeline(self):
        tr = Tracer()
        # insert out of pipeline order
        tr.add("equation_solving", start=0.0, wall_s=0.1, device_s=0.01)
        tr.add("contact_detection", start=0.0, wall_s=0.1, device_s=0.01)
        tr.add("zzz_custom", start=0.0, wall_s=0.1)
        names = list(build_report(tr)["modules"])
        pipeline_names = [n for n in names if n in PIPELINE_MODULES]
        assert pipeline_names == [
            m for m in PIPELINE_MODULES if m in pipeline_names
        ]
        assert names[-1] == "zzz_custom"  # unknown modules trail

    def test_zero_device_speedup_is_none(self):
        tr = Tracer()
        tr.add("contact_detection", start=0.0, wall_s=0.1, device_s=0.0)
        report = build_report(tr)
        assert report["modules"]["contact_detection"]["wall_modelled_ratio"] is None

    def test_report_is_json_safe(self):
        json.dumps(build_report(_trace()))


class TestRender:
    def test_table_contains_columns_and_rows(self):
        text = render_report(build_report(_trace()))
        assert "measured s" in text and "modelled s" in text
        assert "speedup" in text
        assert "contact_detection" in text
        assert "total" in text
        assert "GpuEngine" in text  # meta in the title


class TestMain:
    def test_renders_table_from_file(self, tmp_path, capsys):
        path = _trace().write(tmp_path / "t.json")
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "equation_solving" in out

    def test_json_flag(self, tmp_path, capsys):
        path = _trace().write(tmp_path / "t.json")
        assert report_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 2

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "missing.json")]) == 1

    def test_empty_trace_is_error(self, tmp_path, capsys):
        path = Tracer().write(tmp_path / "empty.json")
        assert report_main([str(path)]) == 1
