"""Compiled-artifact cache regression tests (the opt fuzz-bench fix).

Constructing a CompiledSimulation used to re-run the optimizer and code
generator every time, even for a design already compiled this session —
which made ``opt=True`` benchmark sessions pay run_opt+codegen per
variant and showed up as the opt fuzz throughput regression. These tests
pin the fix: the second construction of a content-identical design must
reuse the cached artifact and behave byte-identically. The hosted-design
memo beside it must hand every target hosting the same peripheral the
same elaborated and instrumented design.
"""

import pytest

from repro import HardSnapSession
from repro.firmware import TIMER_BASE, dispatcher
from repro.instrument import insert_scan_chain
from repro.peripherals import catalog
from repro.peripherals.soc import SocSpec
from repro.sim.compiler import (
    CompiledSimulation,
    clear_compile_cache,
    compile_cache_stats,
    design_fingerprint,
)
from repro.targets import FpgaTarget


def _design():
    return insert_scan_chain(catalog.TIMER.elaborate()).design


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def test_second_build_reuses_cache():
    CompiledSimulation(_design(), opt=True)
    stats = compile_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 0
    CompiledSimulation(_design(), opt=True)
    stats = compile_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_opt_and_no_opt_are_distinct_entries():
    CompiledSimulation(_design(), opt=False)
    CompiledSimulation(_design(), opt=True)
    stats = compile_cache_stats()
    assert stats["misses"] == 2 and stats["entries"] == 2


def test_warm_build_behaves_identically():
    cold = CompiledSimulation(_design(), opt=True)
    warm = CompiledSimulation(_design(), opt=True)
    assert compile_cache_stats()["hits"] == 1
    cold.step(200)
    warm.step(200)
    assert cold.values == warm.values
    assert cold.memories == warm.memories
    assert warm.source == cold.source


def test_warm_instances_do_not_share_runtime_state():
    a = CompiledSimulation(_design(), opt=True)
    b = CompiledSimulation(_design(), opt=True)
    a.step(37)
    assert a.cycle == 37 and b.cycle == 0
    assert a.values is not b.values


def test_fingerprint_ignores_identity_but_not_content():
    d1, d2 = _design(), _design()
    assert d1 is not d2
    assert design_fingerprint(d1) == design_fingerprint(d2)
    d2.nets[next(iter(d2.nets))].width += 1
    assert design_fingerprint(d1) != design_fingerprint(d2)


def test_content_change_misses_cache():
    CompiledSimulation(_design(), opt=False)
    changed = _design()
    changed.name = "other"
    CompiledSimulation(changed, opt=False)
    assert compile_cache_stats()["misses"] == 2


# -- the hosted-design memo: elaborate + instrument once per peripheral --------

def _host(spec, **kwargs):
    target = FpgaTarget(scan_mode="functional", **kwargs)
    return target.add_peripheral(spec, 0x4000_0000)


def test_targets_share_one_instrumented_design():
    first, second = _host(catalog.TIMER), _host(catalog.TIMER)
    assert second.design is first.design
    assert second.extra["scan"] is first.extra["scan"]
    assert second.extra["original"] is first.extra["original"]
    assert second.extra is not first.extra
    stats = compile_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1
    assert stats["designs"] == 1


def test_soc_and_scoped_chain_get_their_own_entries():
    soc = SocSpec([catalog.TIMER, catalog.GPIO], name="soc2")
    timer = _host(catalog.TIMER)
    whole = _host(soc)
    scoped = _host(soc, scan_include=("p0",))
    assert compile_cache_stats()["designs"] == 3
    assert len({id(timer.design), id(whole.design), id(scoped.design)}) == 3
    assert all(e.name.startswith("p0.")
               for e in scoped.extra["scan"].elements)
    assert _host(soc, scan_include=["p0"]).design is scoped.design


def test_clear_compile_cache_empties_the_memo():
    before = _host(catalog.TIMER)
    clear_compile_cache()
    assert compile_cache_stats()["designs"] == 0
    after = _host(catalog.TIMER)
    assert after.design is not before.design
    assert design_fingerprint(after.design) == \
        design_fingerprint(before.design)


def test_warm_memo_campaign_matches_cold():
    def campaign():
        session = HardSnapSession(dispatcher(4, work_cycles=6),
                                  [(catalog.TIMER, TIMER_BASE)],
                                  scan_mode="shift")
        verdict = session.run(max_instructions=200_000).verdict_summary()
        return session.target.instances["timer"].design, verdict

    hosted, cold = campaign()
    # The campaign left the shared design exactly as it was built.
    assert design_fingerprint(hosted) == design_fingerprint(_design())
    warm_hosted, warm = campaign()
    assert warm_hosted is hosted and warm == cold
    stats = compile_cache_stats()
    assert stats["designs"] == 1 and stats["misses"] == 1
