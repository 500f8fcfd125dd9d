"""Telemetry replay: feed stored operational rows into broker topics.

The simulator walks the store slot by slot across all turbines, publishing
each record's CSV row bytes to the turbine's topic. ``speedup_ms_per_step``
paces one 10-minute slot per N real milliseconds (None = as fast as
possible; 600000 = real time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .broker import Broker
from .ingest import TurbineStore


@dataclass
class SimulatorConfig:
    store_path: Path
    broker_path: Path
    turbines: list[str] = field(default_factory=list)  # empty = manifest order
    start: int | None = None
    end: int | None = None
    speedup_ms_per_step: float | None = None  # None = max speed

    def __post_init__(self):
        if self.speedup_ms_per_step is not None and self.speedup_ms_per_step <= 0:
            raise ValueError("speedup must be positive milliseconds per step")


def replay(config: SimulatorConfig, broker: Broker | None = None) -> int:
    """Publish stored records in slot order; returns the publish count."""
    store = TurbineStore.open(Path(config.store_path))
    if broker is None:
        broker = Broker(Path(config.broker_path))
    turbines = config.turbines or list(store.manifest.turbines)
    for turbine in turbines:
        broker.ensure_topic(turbine)

    streams = []
    for turbine in turbines:
        records = list(store.scan_operational(turbine, config.start, config.end))
        streams.append((turbine, records))
    slots = sorted({rec.timestamp for _, records in streams for rec in records})

    published = 0
    pointers = [0] * len(streams)
    for slot in slots:
        step_begin = time.monotonic()
        for si, (turbine, records) in enumerate(streams):
            i = pointers[si]
            while i < len(records) and records[i].timestamp == slot:
                broker.publish(turbine, records[i].to_csv_line().encode("utf-8"))
                i += 1
                published += 1
            pointers[si] = i
        if config.speedup_ms_per_step is not None:
            remaining = config.speedup_ms_per_step / 1000.0 - (time.monotonic() - step_begin)
            if remaining > 0:
                time.sleep(remaining)
    return published
