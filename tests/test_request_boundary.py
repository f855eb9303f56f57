"""Property test of the one run-request boundary (hypothesis).

Serve admission (``protocol.parse_run_request``), campaign expansion
(``Campaign.cells``) and the engine (``RunRequest(**d).resolved()``)
must accept or reject the same request dicts, and give an accepted one
the same content address, because all three are checked by
``RunRequest.validate()``.
"""

from hypothesis import given, strategies as st

from repro.campaign import Campaign, CampaignSpecError
from repro.core.factory import PREFETCHERS, VARIANTS
from repro.serve import protocol
from repro.sim import cache as disk_cache
from repro.sim.config import config_with
from repro.sim.runner import RequestError, RunRequest
from repro.sim.simulator import L1D_PREFETCHERS

NAN, INF = float("nan"), float("inf")

#: field -> (values every surface accepts, values every surface rejects)
POOLS = {
    "workload": (["mcf", "lbm", "povray"], ["nope", "", 3, None, ["mcf"]]),
    "prefetcher": (sorted(PREFETCHERS), ["warp", "SPP", None, 1]),
    "variant": (list(VARIANTS), ["turbo", "PSA", 0]),
    "l1d": (list(L1D_PREFETCHERS), ["bogus", None, 0]),
    "oracle_page_size": ([False, True], [0, 1, "yes", None]),
    "n_accesses": ([1, 500, 2000], [0, -3, 1.5, True, "100", NAN]),
    "table_scale": ([1, 1.0, 0.5, 2], [0, -1.0, NAN, INF, True, "1"]),
    "gb_fraction": ([0, 0.0, 0.25, 1], [-0.1, 1.5, 2, NAN, INF, False]),
    "config": ([{}, {"llc.size_bytes": 1 << 20}, {"ppm_enabled": False},
                {"dram.transfer_rate_mts": 1600},
                {"dueling.policy": "standard"}],
               [{"llc.size_bytes": 12345}, {"llc.size_bytes": "big"},
                {"llc.ways": 0}, {"warp_factor": 9}, {"llc": 1},
                {"llc.sets": 4}, {"describe": 1},
                {"ppm_enabled": 1}, {"dueling.policy": "bogus"}]),
}
OPTIONAL = [name for name in POOLS if name != "workload"]

REJECTED = "rejected"


@st.composite
def request_dicts(draw):
    """(request dict, its fields drawn from the invalid pools)."""
    bad = draw(st.sets(st.sampled_from(list(POOLS)), max_size=2))
    present = ["workload"] + [
        name for name in OPTIONAL
        if name in bad or draw(st.booleans())]
    return {name: draw(st.sampled_from(POOLS[name][name in bad]))
            for name in present}, bad


def via_protocol(d):
    try:
        return disk_cache.key_digest(protocol.parse_run_request(d).key())
    except protocol.ProtocolError:
        return REJECTED


def via_campaign(d):
    fixed = {k: v for k, v in d.items() if k not in ("workload", "config")}
    fixed.update(d.get("config", {}))
    try:
        [cell] = Campaign(name="prop", axes={"workload": [d["workload"]]},
                          fixed=fixed).cells()
    except CampaignSpecError:
        return REJECTED
    return cell.digest


def via_engine(d):
    fields = {k: v for k, v in d.items() if k != "config"}
    try:
        request = RunRequest(config=config_with(d.get("config", {})),
                             **fields).resolved()
    except RequestError:
        return REJECTED
    return disk_cache.key_digest(request.key())


@given(request_dicts())
def test_every_surface_agrees(drawn):
    """Serve, campaigns and the engine reject exactly the requests with
    an invalid field, and an accepted request has one key whichever
    surface built it."""
    d, bad = drawn
    engine = via_engine(d)
    assert (engine == REJECTED) == bool(bad)
    assert via_protocol(d) == via_campaign(d) == engine


def test_float_fields_given_as_ints_share_the_default_key():
    default = RunRequest("mcf", n_accesses=100).key()
    assert RunRequest("mcf", n_accesses=100, table_scale=1,
                      gb_fraction=0).key() == default
