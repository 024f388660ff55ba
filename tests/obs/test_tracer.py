"""Unit tests for the span tracer and its Chrome trace-event export."""

import json

import numpy as np
import pytest

from repro.obs.tracer import NULL_TRACER, Tracer


class TestRecording:
    def test_add_records_span(self):
        tr = Tracer()
        tr.add("contact_detection", step=3, start=0.5, wall_s=0.01,
               device_s=0.002, n_contacts=7)
        (s,) = tr.spans
        assert s.name == "contact_detection"
        assert s.step == 3
        assert s.extras == {"n_contacts": 7}

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.add("x", start=0.0, wall_s=1.0)
        assert tr.spans == []

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.spans == []

    def test_numpy_extras_become_json_safe(self):
        tr = Tracer()
        tr.add("step", start=0.0, wall_s=0.0,
               n=np.int64(4), x=np.float64(2.5))
        s = tr.spans[0]
        assert type(s.extras["n"]) is int
        assert type(s.extras["x"]) is float
        json.dumps(s.extras)  # must not raise


class TestAggregation:
    def _tracer(self):
        tr = Tracer()
        tr.add("contact_detection", step=0, start=0.0, wall_s=0.1,
               device_s=0.01)
        tr.add("contact_detection", step=1, start=0.3, wall_s=0.2,
               device_s=0.02)
        tr.add("equation_solving", step=0, start=0.1, wall_s=0.5,
               device_s=0.25)
        tr.add("step", step=0, start=0.0, wall_s=0.7, cg_iterations=40)
        return tr

    def test_module_summary_excludes_step_spans(self):
        summ = self._tracer().module_summary()
        assert set(summ) == {"contact_detection", "equation_solving"}
        cd = summ["contact_detection"]
        assert cd["spans"] == 2
        assert cd["wall_s"] == pytest.approx(0.3)
        assert cd["device_s"] == pytest.approx(0.03)

    def test_step_spans(self):
        steps = self._tracer().step_spans()
        assert len(steps) == 1
        assert steps[0].extras["cg_iterations"] == 40


class TestExportRoundTrip:
    def _tracer(self):
        tr = Tracer(meta={"engine": "GpuEngine", "profile": "Tesla K40"})
        tr.add("contact_detection", step=0, start=0.0, wall_s=0.125,
               device_s=0.5, n_contacts=9)
        tr.add("step", step=0, start=0.0, wall_s=0.25, cg_iterations=17)
        return tr

    def test_chrome_round_trip(self, tmp_path):
        path = self._tracer().write(tmp_path / "t.json")
        loaded = Tracer.load(path)
        assert loaded.meta["profile"] == "Tesla K40"
        # only the authoritative wall-clock track loads back
        assert [s.name for s in loaded.spans] == ["contact_detection", "step"]
        assert loaded.spans[0].wall_s == pytest.approx(0.125)
        assert loaded.spans[0].device_s == pytest.approx(0.5)
        assert loaded.spans[0].extras == {"n_contacts": 9}
        assert loaded.spans[1].extras["cg_iterations"] == 17

    def test_chrome_structure_is_perfetto_compatible(self):
        doc = self._tracer().to_chrome_dict()
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for ev in complete:
            assert {"name", "pid", "tid", "ts", "dur"} <= set(ev)
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        # metadata names for both tracks
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"wall clock", "modelled device"} <= names
        json.dumps(doc)  # strict-JSON clean

    def test_chrome_device_track_synthetic_clock(self):
        tr = Tracer()
        tr.add("a", step=0, start=0.0, wall_s=0.1, device_s=0.01)
        tr.add("b", step=0, start=0.1, wall_s=0.1, device_s=0.02)
        doc = tr.to_chrome_dict()
        dev = [e for e in doc["traceEvents"]
               if e["ph"] == "X" and e["tid"] == 2]
        assert len(dev) == 2
        # back-to-back: second device span starts where the first ended
        assert dev[1]["ts"] == pytest.approx(dev[0]["ts"] + dev[0]["dur"])
