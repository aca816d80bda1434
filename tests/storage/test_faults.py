"""Semantics of the deterministic fault-injection harness itself."""

import errno
from pathlib import Path

import pytest

from repro.storage import durability
from repro.storage.durability import read_bytes, write_bytes_atomic
from repro.testing.faults import (
    OPS,
    FaultEvent,
    FaultPlan,
    FaultRule,
    OpRecorder,
    SeededFaults,
    inject,
    plan_for_crash_point,
)


class TestFaultRule:
    def test_matches_op_and_name_pattern(self, tmp_path):
        rule = FaultRule(op="read", pattern="frag-*.bin")
        assert rule.matches("read", tmp_path / "frag-000000.bin")
        assert not rule.matches("write", tmp_path / "frag-000000.bin")
        assert not rule.matches("read", tmp_path / "manifest.json")

    def test_wildcard_op(self, tmp_path):
        rule = FaultRule(op="*", pattern="*")
        for op in OPS:
            assert rule.matches(op, tmp_path / "anything")

    def test_after_skips_then_times_bounds(self):
        rule = FaultRule(after=2, times=2)
        fired = [rule.should_fire() for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_times_none_fires_forever(self):
        rule = FaultRule(times=None)
        assert all(rule.should_fire() for _ in range(10))

    def test_custom_errno(self, tmp_path):
        rule = FaultRule(errno_code=errno.ENOSPC)
        err = rule.make_error("write", tmp_path / "f")
        assert err.errno == errno.ENOSPC


class TestFaultPlan:
    def test_fails_matching_op(self, tmp_path):
        plan = FaultPlan([FaultRule(op="read", pattern="x.bin")])
        target = tmp_path / "x.bin"
        target.write_bytes(b"data")
        with inject(plan):
            with pytest.raises(OSError) as ei:
                read_bytes(target)
        assert ei.value.errno == errno.EIO
        assert [(e.op, e.path.name) for e in plan.fired] == [("read", "x.bin")]

    def test_unmatched_ops_pass_through(self, tmp_path):
        plan = FaultPlan([FaultRule(op="read", pattern="other.bin")])
        target = tmp_path / "x.bin"
        target.write_bytes(b"data")
        with inject(plan):
            assert read_bytes(target) == b"data"
        assert not plan.fired

    def test_torn_rule_does_not_fire_as_plain_write_fault(self, tmp_path):
        # A torn rule must tear (persist a prefix), not fail the op before
        # any bytes hit the disk — and must fire exactly once per write.
        plan = FaultPlan(
            [FaultRule(op="write", pattern="f.bin.tmp", torn_bytes=3)]
        )
        with inject(plan), pytest.raises(OSError):
            write_bytes_atomic(tmp_path / "f.bin", b"abcdef")
        assert len(plan.fired) == 1
        assert plan.fired[0].torn_at == 3
        assert (tmp_path / "f.bin.tmp").read_bytes() == b"abc"

    def test_torn_bytes_clamped_to_blob(self, tmp_path):
        plan = FaultPlan(
            [FaultRule(op="write", pattern="f.bin.tmp", torn_bytes=10_000)]
        )
        with inject(plan), pytest.raises(OSError):
            write_bytes_atomic(tmp_path / "f.bin", b"abc")
        assert plan.fired[0].torn_at == 3

    def test_second_write_succeeds_after_single_shot_rule(self, tmp_path):
        plan = FaultPlan([FaultRule(op="write", pattern="f.bin.tmp")])
        with inject(plan):
            with pytest.raises(OSError):
                write_bytes_atomic(tmp_path / "f.bin", b"first")
            write_bytes_atomic(tmp_path / "f.bin", b"second")
        assert (tmp_path / "f.bin").read_bytes() == b"second"


class TestPlanForCrashPoint:
    def test_targets_nth_occurrence(self, tmp_path):
        target = tmp_path / "f.bin"
        recorder = OpRecorder()
        with inject(recorder):
            for i in range(3):
                write_bytes_atomic(target, b"v%d" % i)
        # Kill the second rename of f.bin (event index 3: w,r,w,r,w,r).
        plan = plan_for_crash_point(recorder.events, 3)
        with inject(plan):
            write_bytes_atomic(target, b"a")  # first rename passes
            with pytest.raises(OSError):
                write_bytes_atomic(target, b"b")  # second rename killed
            with pytest.raises(OSError):
                write_bytes_atomic(target, b"c")  # the process is dead
        assert target.read_bytes() == b"a"

    def test_torn_bytes_only_applies_to_writes(self, tmp_path):
        events = [
            FaultEvent("write", Path("f.bin.tmp")),
            FaultEvent("rename", Path("f.bin")),
        ]
        torn_plan = plan_for_crash_point(events, 0, torn_bytes=5)
        assert torn_plan.rules[0].torn_bytes == 5
        rename_plan = plan_for_crash_point(events, 1, torn_bytes=5)
        assert rename_plan.rules[0].torn_bytes is None


class TestSeededFaults:
    def test_deterministic_per_seed(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"data")

        def outcomes(seed):
            faults = SeededFaults(seed, p=0.5, ops=("read",))
            results = []
            with inject(faults):
                for _ in range(20):
                    try:
                        read_bytes(target)
                        results.append(True)
                    except OSError:
                        results.append(False)
            return results

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)  # different seed, different chaos
        assert not all(outcomes(7))  # p=0.5 over 20 ops does fail sometimes

    def test_p_bounds_validated(self):
        with pytest.raises(ValueError):
            SeededFaults(1, p=1.5)

    def test_op_filter(self, tmp_path):
        faults = SeededFaults(1, p=1.0, ops=("rename",))
        with inject(faults), pytest.raises(OSError):
            write_bytes_atomic(tmp_path / "f.bin", b"x")
        assert [e.op for e in faults.fired] == ["rename"]


class TestInjectContextManager:
    def test_restores_previous_hook(self):
        outer = OpRecorder()
        inner = OpRecorder()
        old = durability.set_fault_hook(outer)
        try:
            assert durability.get_fault_hook() is outer
            with inject(inner):
                assert durability.get_fault_hook() is inner
            assert durability.get_fault_hook() is outer
        finally:
            durability.set_fault_hook(old)

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with inject(OpRecorder()):
                raise RuntimeError("boom")
        assert durability.get_fault_hook() is None
