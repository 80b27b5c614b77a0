"""Unit tests for the operation vocabulary."""

import pytest

from repro.sim import ops
from repro.sim.registers import Register


def test_read_is_shared():
    r = Register("r")
    assert ops.read(r).is_shared
    assert ops.Read(r).register is r


def test_write_is_shared():
    r = Register("r")
    op = ops.write(r, 7)
    assert op.is_shared
    assert op.value == 7


def test_delay_not_shared():
    assert not ops.delay(1.0).is_shared


def test_local_work_not_shared():
    assert not ops.local_work(2.0).is_shared


def test_label_not_shared():
    assert not ops.label("x").is_shared


def test_delay_rejects_negative():
    with pytest.raises(ValueError):
        ops.delay(-0.1)


def test_local_work_rejects_negative():
    with pytest.raises(ValueError):
        ops.local_work(-1)


def test_delay_zero_allowed():
    assert ops.delay(0.0).duration == 0.0


def test_label_payload_default_none():
    lbl = ops.label(ops.DECIDED)
    assert lbl.name == ops.DECIDED
    assert lbl.payload is None


def test_label_payload_carried():
    lbl = ops.label(ops.DECIDED, 42)
    assert lbl.payload == 42


def test_well_known_label_kinds_distinct():
    kinds = {ops.ENTRY_START, ops.CS_ENTER, ops.CS_EXIT, ops.EXIT_DONE, ops.DECIDED}
    assert len(kinds) == 5


def test_read_repr_mentions_register():
    r = Register("counter")
    assert "counter" in repr(ops.read(r))


def test_write_repr_mentions_value():
    r = Register("counter")
    assert "99" in repr(ops.write(r, 99))
