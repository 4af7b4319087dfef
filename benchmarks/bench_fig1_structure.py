"""Figure 1: address shares by IID class and by Cable/DSL/ISP AS label.

Also hosts the columnar scaling sweep: classification throughput of the
scalar loop vs the packed AddressColumn at 10^4..10^6 addresses, with a
hard gate requiring the column to beat the scalar path by >= 3x at the
largest size.
"""

import os
import random
import time

from benchmarks.conftest import write_report
from repro.analysis import structure
from repro.ipv6 import address as addr
from repro.ipv6 import eui64, iid
from repro.ipv6.columnar import AddressColumn
from repro.ipv6.iid import CLASSES
from repro.report import fmt_pct, render_table, shape_check


def _reports(experiment):
    asdb = experiment.world.asdb
    return [
        structure.analyze("ntp", experiment.ntp_dataset.addresses, asdb),
        structure.analyze("rl", experiment.rl_dataset.addresses, asdb),
        structure.analyze("hitlist-full", experiment.hitlist.full, asdb),
        structure.analyze("hitlist-public", experiment.hitlist.public, asdb),
    ]


def test_fig1_structure(experiment, benchmark):
    reports = benchmark(_reports, experiment)

    rows = []
    for report in reports:
        rows.append([report.label]
                    + [fmt_pct(report.class_shares.get(cls, 0.0))
                       for cls in CLASSES]
                    + [fmt_pct(report.eyeball_as_share)])
    text = render_table(
        ["dataset"] + list(CLASSES) + ["Cable/DSL/ISP AS"],
        rows, title="Figure 1 - Prop. of addresses grouped by IID and AS")

    ntp, rl, full, public = reports
    checks = [
        shape_check("hitlist has the highest structured share "
                    "(manually configured servers/routers)",
                    full.structured_share > ntp.structured_share and
                    public.structured_share > ntp.structured_share),
        shape_check("NTP data is dominated by high-entropy (privacy) IIDs",
                    ntp.high_entropy_share > 0.4),
        shape_check("NTP and R&L shapes are similar (both client-heavy)",
                    abs(ntp.high_entropy_share - rl.high_entropy_share) < 0.3),
        shape_check("Cable/DSL/ISP share higher for NTP than hitlist",
                    ntp.eyeball_as_share > full.eyeball_as_share),
    ]
    text += "\n\n" + "\n".join(checks)
    write_report("fig1_structure", text)

    benchmark.extra_info.update({
        "ntp_high_entropy": round(ntp.high_entropy_share, 4),
        "hitlist_structured": round(full.structured_share, 4),
        "ntp_eyeball_share": round(ntp.eyeball_as_share, 4),
    })
    assert ntp.structured_share < full.structured_share
    assert ntp.eyeball_as_share > full.eyeball_as_share


# -- columnar scaling sweep ------------------------------------------------

#: Largest sweep size; override for quick local runs
#: (e.g. REPRO_BENCH_COLUMNAR_MAX=100000).
MAX_SWEEP = int(os.environ.get("REPRO_BENCH_COLUMNAR_MAX", str(10**6)))

#: The column must beat the scalar loop by this factor at the largest
#: sweep size (conversion from ints included).
GATE_SPEEDUP = 3.0


def _synthetic_corpus(count: int, seed: int = 0x51CA) -> list:
    """A Fig-1-shaped address mix exercising every IID class."""
    rng = random.Random(seed)
    base = addr.parse("2001:db8::")
    values = []
    for index in range(count):
        prefix = base + (rng.getrandbits(16) << 64)
        draw = rng.random()
        if draw < 0.45:  # privacy extensions: random IID
            value = addr.with_iid(prefix, rng.getrandbits(64))
        elif draw < 0.55:  # EUI-64 from a MAC
            value = addr.with_iid(
                prefix, eui64.mac_to_iid(rng.getrandbits(48)))
        elif draw < 0.70:  # low-byte: manually numbered hosts
            value = addr.with_iid(prefix, rng.randint(1, 255))
        elif draw < 0.75:  # subnet router anycast
            value = addr.with_iid(prefix, 0)
        elif draw < 0.80:  # low-two-byte
            value = addr.with_iid(prefix, rng.randint(256, 0xFFFF))
        elif draw < 0.90:  # low-entropy: a couple of distinct bytes
            byte = rng.getrandbits(8)
            value = addr.with_iid(prefix, byte * 0x0101010101010101)
        else:  # medium-entropy: structured but varied
            value = addr.with_iid(
                prefix, (rng.getrandbits(16) << 32) | rng.getrandbits(16))
        values.append(value)
    return values


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_fig1_columnar_scaling_gate():
    """Scaling sweep 10^4 -> 10^6 + the >=3x columnar speedup gate."""
    sizes = [size for size in (10**4, 10**5, 10**6) if size <= MAX_SWEEP]
    rows = []
    for size in sizes:
        values = _synthetic_corpus(size)
        scalar_profile, scalar_s = _time(lambda: iid.profile_scalar(values))
        # Conversion is charged to the columnar path: the gate covers
        # "ints in hand -> profile out", not just the kernel.
        col_profile, col_s = _time(
            lambda: iid.profile(AddressColumn.from_ints(values)))
        assert col_profile.as_dict() == scalar_profile.as_dict(), \
            f"columnar diverged from scalar at n={size}"
        speedup = scalar_s / col_s if col_s else float("inf")
        rows.append([f"{size:,}", f"{scalar_s:.3f}s", f"{col_s:.3f}s",
                     f"{speedup:.1f}x"])

    text = render_table(
        ["addresses", "scalar", "column", "speedup"],
        rows, title="Columnar IID classification scaling "
                    "(conversion included)")
    text += "\n\n" + shape_check(
        f"columnar >= {GATE_SPEEDUP}x scalar at {sizes[-1]:,} addresses",
        speedup >= GATE_SPEEDUP)
    write_report("fig1_structure_scaling", text)

    assert speedup >= GATE_SPEEDUP, (
        f"columnar speedup {speedup:.2f}x below the {GATE_SPEEDUP}x gate "
        f"at n={sizes[-1]:,}")
