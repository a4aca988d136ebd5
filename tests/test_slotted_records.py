"""The per-arrival records carry no per-instance ``__dict__``.

A day builds one :class:`Event`, :class:`QueuedQuery` and
:class:`TenantArrival` (or :class:`ArrivalEvent`) per arrival, so each
is a slotted dataclass: smaller, quicker to build, and not tracked as a
dict by the garbage collector.
"""

import pytest

from repro.serving.admission import QueuedQuery
from repro.serving.arrivals import ArrivalEvent
from repro.sim.engine import Event
from repro.tenancy.trace import TenantArrival

RECORDS = [
    Event(time=0.0, seq=0, callback=lambda: None),
    QueuedQuery(qid=0, arrival_s=0.0),
    TenantArrival(
        time_s=0.0, tenant="t", app="tir", kind="query", intent=0, key=-1,
        burst=False,
    ),
    ArrivalEvent(time_s=0.0),
]


@pytest.mark.parametrize(
    "record", RECORDS, ids=[type(r).__name__ for r in RECORDS]
)
def test_record_has_no_instance_dict(record):
    assert "__slots__" in type(record).__dict__
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.not_a_field = 1
