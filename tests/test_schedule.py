import numpy as np
import pytest

from hexreg.errors import BadConfig
from hexreg.schedule import (ThresholdSchedule, adaptive_threshold,
                             cosine_threshold, step_threshold,
                             threshold_for_epoch)


class TestStepThreshold:
    def test_start(self):
        s = ThresholdSchedule("step", start=0.9, floor=0.1, step_down=0.1,
                              period_epochs=100)
        assert step_threshold(s, 0) == pytest.approx(0.9)

    def test_one_period_down(self):
        s = ThresholdSchedule("step", start=0.9, floor=0.1, step_down=0.1,
                              period_epochs=100)
        assert step_threshold(s, 100) == pytest.approx(0.8)

    def test_clamps_at_floor(self):
        s = ThresholdSchedule("step", start=0.9, floor=0.45, step_down=0.1,
                              period_epochs=100)
        assert step_threshold(s, 1000) == pytest.approx(0.45)

    def test_monotone_and_bounded(self):
        s = ThresholdSchedule("step", start=0.95, floor=0.65, step_down=0.05,
                              period_epochs=30)
        vals = [step_threshold(s, e) for e in range(500)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(s.floor <= v <= s.start for v in vals)


class TestCosineThreshold:
    def test_endpoints(self):
        s = ThresholdSchedule("cos", start=0.95, floor=0.65, total_epochs=450)
        assert cosine_threshold(s, 0) == pytest.approx(0.95)
        assert cosine_threshold(s, 450) == pytest.approx(0.65)

    def test_midpoint(self):
        s = ThresholdSchedule("cos", start=0.95, floor=0.65, total_epochs=100)
        assert cosine_threshold(s, 50) == pytest.approx(0.80)

    def test_flat_after_total(self):
        s = ThresholdSchedule("cos", start=0.9, floor=0.5, total_epochs=10)
        assert cosine_threshold(s, 25) == pytest.approx(0.5)

    def test_monotone_and_bounded(self):
        s = ThresholdSchedule("cos", start=0.9, floor=0.2, total_epochs=77)
        vals = [cosine_threshold(s, e) for e in range(120)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(s.floor - 1e-12 <= v <= s.start + 1e-12 for v in vals)


class TestAdaptiveThreshold:
    def test_zero_variance(self):
        assert adaptive_threshold([0.7, 0.7, 0.7], 2.0) == pytest.approx(0.7)

    def test_zero_one(self):
        assert adaptive_threshold([0.0, 1.0], 2.0) == pytest.approx(1.5)

    def test_symmetric_pair(self):
        assert adaptive_threshold([-0.5, 0.5], 1.0) == pytest.approx(0.5)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(-1, 1, size=200)
        delta = 0.123
        a = adaptive_threshold(vals, 2.0)
        b = adaptive_threshold(vals + delta, 2.0)
        assert b == pytest.approx(a + delta, abs=1e-12)

    def test_population_std(self):
        # population std of {0, 1} is 0.5, sample std would be ~0.707
        assert adaptive_threshold([0.0, 1.0], 1.0) == pytest.approx(1.0)


class TestScheduleValidation:
    def test_start_below_floor(self):
        with pytest.raises(BadConfig):
            ThresholdSchedule("step", start=0.1, floor=0.5)

    @pytest.mark.parametrize("kind,fields", [("fixed", {"start": 0.05}),
                                             ("adaptive", {"floor": 0.95})])
    def test_floor_binds_only_the_kinds_that_read_it(self, kind, fields):
        s = ThresholdSchedule(kind, **fields)
        assert threshold_for_epoch(s, 3) == (0.05 if kind == "fixed" else None)

    def test_bad_kind(self):
        with pytest.raises(BadConfig):
            ThresholdSchedule("linear")

    def test_nonpositive_sigma(self):
        with pytest.raises(BadConfig):
            ThresholdSchedule("adaptive", sigma_multiplier=0.0)

    @pytest.mark.parametrize("field,value,message", [
        ("sigma_multiplier", float("inf"), "must be a finite number"),
        ("start", float("nan"), "must be a finite number"),
        ("floor", True, "must be a finite number"),
        ("step_down", "0.1", "must be a finite number"),
        ("period_epochs", 2.5, "must be an integer"),
        ("total_epochs", 100.0, "must be an integer"),
        ("period_epochs", True, "must be an integer"),
    ])
    def test_bad_values_name_the_field(self, field, value, message):
        for kind in ("step", "adaptive"):
            with pytest.raises(BadConfig, match=rf"schedule\.{field} {message}"):
                ThresholdSchedule(kind, **{field: value})

    @pytest.mark.parametrize("kind,fields,message", [
        ("step", {"start": 0.1, "floor": 0.5},
         r"schedule\.start must be >= schedule\.floor \(0\.5\) for the step schedule, got 0\.1"),
        ("cos", {"start": 0.1, "floor": 0.5},
         r"schedule\.start must be >= schedule\.floor \(0\.5\) for the cos schedule, got 0\.1"),
        ("step", {"step_down": 0.0},
         r"schedule\.step_down must be > 0 for the step schedule, got 0\.0"),
        ("cos", {"total_epochs": 0},
         r"schedule\.total_epochs must be >= 1 for the cos schedule, got 0"),
    ], ids=["step start", "cos start", "step step_down", "cos total_epochs"])
    def test_cross_field_rules_name_the_field_and_kind(self, kind, fields, message):
        with pytest.raises(BadConfig, match=rf"^{message}$"):
            ThresholdSchedule(kind, **fields)

    def test_threshold_for_epoch_dispatch(self):
        assert threshold_for_epoch(ThresholdSchedule("fixed", start=0.75), 42) == 0.75
        assert threshold_for_epoch(ThresholdSchedule("adaptive"), 0) is None
